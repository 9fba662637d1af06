"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value or unparseable config file."""


class BlowupError(RuntimeError):
    """Integration produced a non-finite velocity.

    Carries the step index at which the blowup was detected and, once a full
    run has attached it, the partial trajectory recorded up to that step.
    """

    def __init__(self, step_index):
        super().__init__(f"non-finite velocity at step {step_index}")
        self.step_index = step_index
        self.trajectory = None


class CoverageError(RuntimeError):
    """Quadrature grid does not cover enough probability mass."""


class CapabilityError(TypeError):
    """A density model lacks a capability required by the operation."""


class DegenerateCloudError(ValueError):
    """A particle cloud statistic is undefined (e.g. all pairs coincident)."""


class StrideError(ValueError):
    """Requested time does not land on the recorded snapshot grid."""
