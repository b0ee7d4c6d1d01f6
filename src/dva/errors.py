"""Exception hierarchy shared across the package."""


class DvaError(Exception):
    """Base class for all package errors."""


class ContractError(DvaError):
    """A caller violated a documented precondition (shapes, ranges, modes)."""


class DataError(DvaError):
    """Input data is structurally valid but semantically inconsistent."""


class ParseError(DataError):
    """Line N of an input could not be parsed: ``<where>: line N: <message>``,
    where ``where`` is the input's kind and path; ``line`` carries N."""

    def __init__(self, where: str, line: int, message: str):
        self.line = line
        super().__init__(f"{where}: line {line}: {message}")


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
