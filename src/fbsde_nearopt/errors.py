"""Exception types shared across the package."""


class FbsdeError(Exception):
    """Base class for all package errors."""


class GridMismatchError(FbsdeError):
    """Two objects were built on different time grids or noise bundles."""


class InvalidControlError(FbsdeError):
    """A control value lies outside the admissible set."""


class SimulationError(FbsdeError):
    """State blow-up or non-finite values during path simulation."""


class RegressionError(FbsdeError):
    """Least-squares conditional expectation fit failed."""


class PreconditionError(FbsdeError):
    """A structural precondition of an operation is not met."""


class OracleError(FbsdeError):
    """Oracle computation rejected (budget, missing flags, blow-up)."""
