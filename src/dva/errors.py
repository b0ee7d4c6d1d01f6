"""Exception hierarchy shared across the package."""


class DvaError(Exception):
    """Base class for all package errors."""


class ContractError(DvaError):
    """A caller violated a documented precondition (shapes, ranges, modes)."""


class DataError(DvaError):
    """Input data is structurally valid but semantically inconsistent."""


class ParseError(DataError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(DvaError):
    """Invalid or inconsistent configuration."""


class ConvergenceError(DvaError):
    """An iterative solver failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(f"{message} (last residual {residual:.3e})")


class DegenerateReturnsError(DvaError):
    """Return series has zero variance; the Sharpe ratio is undefined."""


class TrainingAbort(DvaError):
    """Training hit a non-finite loss; carries the failing location and the
    index of the failing model within the runs trained together."""

    def __init__(
        self, message: str, epoch: int, batch: int, component: str, run: int = 0
    ):
        self.epoch = epoch
        self.batch = batch
        self.component = component
        self.run = run
        super().__init__(
            f"{message} (epoch {epoch}, batch {batch}, component {component})"
        )
