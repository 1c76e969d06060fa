"""Exception types shared across the package."""

from __future__ import annotations


class SvdRankError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SvdRankError):
    pass


class InvalidParam(SvdRankError):
    pass


class DegenerateSpectrum(SvdRankError):
    """The matrix is numerically zero; no meaningful top singular pair exists."""


class NotConverged(SvdRankError):
    """Iteration hit its budget. Carries the best available partial result."""

    def __init__(self, message: str, result=None, residual: float = float("nan"),
                 iterations: int = 0):
        super().__init__(message)
        self.result = result
        self.residual = residual
        self.iterations = iterations


class ZeroProjection(SvdRankError):
    """The reference direction is orthogonal to the recovered subspace."""


class GraphDisconnected(SvdRankError):
    pass


class GraphDisconnectedWarning(UserWarning):
    """Measurement graph is disconnected; recovery across components is impossible."""


class IsolatedNode(SvdRankError):
    pass


class EmptyRatios(SvdRankError):
    pass


class ZeroDenominator(SvdRankError):
    pass


class DegenerateScores(SvdRankError):
    pass


class DegenerateVariance(SvdRankError):
    pass


class PreconditionViolated(SvdRankError):
    pass


class ZeroGap(SvdRankError):
    pass


class ParseError(SvdRankError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SelfLoop(ParseError):
    pass


class ConfigError(SvdRankError):
    pass
