"""Error types shared across the solvers."""


class NumericalError(RuntimeError):
    """A solver failed to reach its tolerance; carries diagnostics when available."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class InfeasibleStartError(ValueError):
    """A starting point breaks a budget by more than the optimizer's feasibility tolerance."""
