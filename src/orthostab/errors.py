"""Exception types shared across the workbench."""


class ConfigurationError(ValueError):
    """A gauge, relation, map, or experiment config carries an invalid parameter."""


class InputError(ValueError):
    """A runtime argument violates an operation's precondition."""


class SamplerError(RuntimeError):
    """A constructive sampler failed to produce a witness; carries diagnostics."""


class RangeError(ArithmeticError):
    """A float64 evaluation left the representable range (inf or nan)."""
