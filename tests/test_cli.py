"""Command line surface: argument handling, artifacts, exit codes."""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import small_additive_doc, small_quadratic_doc, write_config
from orthostab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PREMISE,
    EXIT_VIOLATION,
    _cell,
    _point_cell,
    load_stability_config,
    main,
)


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class TestCellFormats:
    def test_floats_use_plain_repr(self):
        assert _cell(np.float64(0.5)) == "0.5"
        assert "np.float64" not in _cell(np.float64(1.25))
        assert _cell(0.1) == "0.1"

    def test_fractions_stay_exact(self):
        assert _cell(Fraction(1, 3)) == "1/3"
        assert _cell(Fraction(-7, 2)) == "-7/2"

    def test_bools_are_lowercase(self):
        assert _cell(True) == "true"

    def test_point_cells(self):
        assert _point_cell(np.array([1.0, -0.5])) == "1.0;-0.5"
        assert _point_cell((Fraction(1, 2), Fraction(-3))) == "1/2;-3"


class TestConstants:
    def test_default_table(self, capsys):
        code = main(["constants"])
        assert code == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0].keys() == {"quantity", "parameter", "lower", "upper", "width"}
        by_key = {(r["quantity"], float(r["parameter"])): r for r in rows}
        ka = by_key[("k_additive", 1.0)]
        assert float(ka["lower"]) <= 7.75 <= float(ka["upper"])
        assert float(ka["width"]) <= 1e-9
        kq = by_key[("k_quadratic", 1.0)]
        assert float(kq["lower"]) <= 1.125 <= float(kq["upper"])
        gs = by_key[("gap_series", 2.0)]
        assert float(gs["lower"]) <= 0.2 <= float(gs["upper"])

    def test_out_directory_receives_csv(self, tmp_path, capsys):
        code = main(["constants", "--beta", "1", "--p", "0.5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        on_disk = (tmp_path / "constants.csv").read_text()
        assert on_disk == capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", "--tol", "0"],
            ["constants", "--beta", "-1"],
            ["constants", "--p", "1.5"],
            ["constants", "--beta", "abc"],
            ["constants", "--beta", ","],
        ],
    )
    def test_bad_flags_exit_config(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        doc = small_additive_doc()
        cfg = load_stability_config(doc)
        assert cfg.equation == "jensen-additive"
        assert cfg.dimension == 2
        assert cfg.n_max == 10

    def test_unknown_section_rejected(self):
        doc = small_additive_doc()
        doc["extras"] = {}
        from orthostab import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown"):
            load_stability_config(doc)

    def test_unknown_stability_key_rejected(self):
        doc = small_additive_doc(typo_field=3)
        from orthostab import ConfigurationError

        with pytest.raises(ConfigurationError, match="typo_field"):
            load_stability_config(doc)

    def test_mode_override_normalizes_rational(self):
        cfg = load_stability_config(small_additive_doc(), mode_override="rational")
        assert cfg.mode == "exact-rational"
        assert cfg.map_spec.backend == "exact-rational"

    def test_seed_override(self):
        cfg = load_stability_config(small_additive_doc(), seed_override="1234")
        assert cfg.seed == 1234


class TestRun:
    def test_artifacts_and_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_additive_doc())
        out = tmp_path / "artifacts"
        code = main(["run", "--config", cfg, "--out", str(out)])
        text = capsys.readouterr().out
        assert code == EXIT_OK
        assert "verdict: PASS" in text
        for name in ("report.json", "samples.csv", "summary.txt"):
            assert (out / name).exists()
        csv_text = (out / "samples.csv").read_text()
        assert csv_text.splitlines()[0] == "point,value,bound,ratio,residual_bound"
        assert "np.float64" not in csv_text
        rows = parse_csv(csv_text)
        assert len(rows) == 40
        for r in rows:
            assert float(r["value"]) <= float(r["bound"]) + float(r["residual_bound"])
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"]["ok"] is True
        assert report["equation"] == "jensen-additive"

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, small_additive_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["run", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_seed_override_changes_samples(self, tmp_path):
        cfg = write_config(tmp_path, small_additive_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["run", "--config", cfg, "--out", str(out2), "--seed", "99"]) == EXIT_OK
        assert (out1 / "samples.csv").read_bytes() != (out2 / "samples.csv").read_bytes()
        rep = json.loads((out2 / "report.json").read_text())
        assert rep["seed"] == 99

    def test_rational_mode_override(self, tmp_path, capsys):
        doc = small_additive_doc(sample_count=15, pair_count=15, n_max=6)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "artifacts"
        code = main(["run", "--config", cfg, "--out", str(out), "--mode", "rational"])
        assert code == EXIT_OK
        rep = json.loads((out / "report.json").read_text())
        assert rep["mode"] == "exact-rational"
        # exact cells carry p/q values, not float reprs
        rows = parse_csv((out / "samples.csv").read_text())
        assert any("/" in r["value"] for r in rows)

    def test_missing_config_exits_config(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_malformed_json_exits_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == EXIT_CONFIG

    def test_unknown_section_exits_config(self, tmp_path):
        doc = small_additive_doc()
        doc["mystery"] = {"a": 1}
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_premise_violation_exits_three(self, tmp_path, capsys):
        doc = small_additive_doc(epsilon=1e-9)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "artifacts"
        code = main(["run", "--config", cfg, "--out", str(out)])
        text = capsys.readouterr().out
        assert code == EXIT_PREMISE
        assert "premise violation:" in text
        assert "witness" in text
        # artifacts are still written for inspection
        assert (out / "report.json").exists()
        rep = json.loads((out / "report.json").read_text())
        assert rep["verdict"]["premise_ok"] is False

    def test_guard_event_exits_two(self, tmp_path, capsys):
        doc = small_quadratic_doc(n_max=25, sample_count=10, pair_count=10)
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        text = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "guard events:" in text
        assert "verdict: FAIL" in text


class TestMalformedRunConfigs:
    """Each malformed input exits 1 with a one-line message, never a traceback."""

    @staticmethod
    def run_expecting_config_error(tmp_path, capsys, doc):
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error:") and err.count("\n") == 1, err
        return err

    def test_matrix_smaller_than_the_space(self, tmp_path, capsys):
        doc = small_additive_doc()
        doc["space"]["dimension"] = 3
        doc["relation"]["dimension"] = 3
        err = self.run_expecting_config_error(tmp_path, capsys, doc)
        assert "space.dimension is 3" in err

    def test_ragged_matrix(self, tmp_path, capsys):
        doc = small_additive_doc()
        doc["map"]["matrix"] = [[2.0, 1.0], [0.5]]
        err = self.run_expecting_config_error(tmp_path, capsys, doc)
        assert "map.matrix" in err

    def test_sample_count_not_a_number(self, tmp_path, capsys):
        doc = small_additive_doc(sample_count="abc")
        err = self.run_expecting_config_error(tmp_path, capsys, doc)
        assert "stability.sample_count" in err

    def test_fractional_sample_count(self, tmp_path, capsys):
        doc = small_additive_doc(sample_count=2.5)
        err = self.run_expecting_config_error(tmp_path, capsys, doc)
        assert "stability.sample_count" in err

    def test_nan_noise_amplitude(self, tmp_path, capsys):
        doc = small_additive_doc()
        doc["map"]["noise_amplitude"] = float("nan")
        err = self.run_expecting_config_error(tmp_path, capsys, doc)
        assert "map.noise_amplitude" in err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_map_seed_outside_64_bits(self, tmp_path, capsys, seed):
        doc = small_additive_doc()
        doc["map"]["seed"] = seed
        err = self.run_expecting_config_error(tmp_path, capsys, doc)
        assert "map.seed" in err

    def test_largest_map_seed_runs(self, tmp_path, capsys):
        doc = small_additive_doc(
            sample_count=4, pair_count=4, conclusion_pairs=4, uniqueness_points=2
        )
        doc["map"]["seed"] = 2**64 - 1
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK


class TestCheckAxioms:
    def test_gauge_target_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "target": "gauge",
                "gauge": {"kind": "beta-sum", "beta": 0.5},
                "dimension": 2,
                "samples": 200,
                "seed": 3,
            },
        )
        code = main(["check-axioms", "--config", cfg])
        text = capsys.readouterr().out
        assert code == EXIT_OK
        assert "verdict: PASS" in text

    def test_quasi_gauge_fails_triangle_but_records_constant(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            {
                "target": "gauge",
                "gauge": {"kind": "lp-quasi", "p": 0.5},
                "dimension": 2,
                "samples": 200,
                "quasi_trials": 500,
                "seed": 3,
            },
        )
        code = main(["check-axioms", "--config", cfg, "--out", str(out)])
        text = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "3-triangle: FAIL" in text
        rep = json.loads((out / "report.json").read_text())
        qc = rep["quasi_constant"]
        assert qc["ok"] is True
        assert 1.0 < qc["estimate"] <= qc["analytic"] * (1 + 1e-9)

    def test_relation_target_all_systems(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "target": "relation",
                "relation": {"kind": "euclidean", "dimension": 2},
                "count": 48,
                "seed": 5,
            },
        )
        code = main(["check-axioms", "--config", cfg])
        text = capsys.readouterr().out
        assert code == EXIT_OK
        for system in ("ratz", "fechner-sikorska", "zero-ortho-or", "zero-ortho-and"):
            assert system in text

    def test_trivial_relation_fails_existence_with_witness(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "target": "relation",
                "relation": {"kind": "trivial-zero", "dimension": 2},
                "systems": ["fechner-sikorska"],
                "count": 32,
                "seed": 5,
            },
        )
        code = main(["check-axioms", "--config", cfg])
        text = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "fs2-existence: FAIL" in text
        assert "witness:" in text
        assert "verdict: FAIL" in text

    def test_unknown_target_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"target": "mystery"})
        assert main(["check-axioms", "--config", cfg]) == EXIT_CONFIG

    def test_unknown_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"target": "gauge", "bogus": 1})
        assert main(["check-axioms", "--config", cfg]) == EXIT_CONFIG


class TestTopLevel:
    def test_no_subcommand_exits_config(self, capsys):
        assert main([]) == EXIT_CONFIG

    def test_unknown_subcommand_exits_config(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_run_requires_config_flag(self, capsys):
        assert main(["run"]) == EXIT_CONFIG


class TestBundledConfigs:
    """Every config shipped in configs/ must load (not run) cleanly."""

    def test_run_configs_load(self):
        from conftest import CONFIG_DIR

        for path in sorted(CONFIG_DIR.glob("*.json")):
            doc = json.loads(path.read_text())
            if "stability" in doc:
                cfg = load_stability_config(doc)
                assert cfg.sample_count >= 1
            else:
                assert doc.get("target") in ("gauge", "relation")
