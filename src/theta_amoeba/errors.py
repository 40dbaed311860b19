"""Exception types shared across the package."""


class ThetaAmoebaError(Exception):
    """Base class for all package errors."""


class NotSymmetric(ThetaAmoebaError):
    """Period matrix fails entrywise symmetry."""


class NotPositive(ThetaAmoebaError):
    """Imaginary part of the period matrix is not positive definite."""


class TruncationOverflow(ThetaAmoebaError):
    """Adaptive lattice-sum radius would exceed the hard cap."""


class MixedLevels(ThetaAmoebaError):
    """Group elements of different levels combined."""


class MixedDimensions(ThetaAmoebaError):
    """Heisenberg labels alpha and beta that are not 1-D vectors of one
    length n >= 1, or elements, monomial matrices or a basis of different
    dimensions n combined."""


class NonPositive(ThetaAmoebaError):
    """A quantity that must be positive is not.

    A level k that is not an integer >= 1, a tau that is not finite or has
    Im tau <= 0, a metric tensor that is not positive (semi)definite, or a
    slope-fit value that is not finite and positive.
    """


class NotIntegral(ThetaAmoebaError, ValueError):
    """A value that must be an integer is not: a Heisenberg group label
    (c, alpha, beta) or the slope of a line on the two-torus, which must
    also be nonnegative. A bool is refused too, though Python counts it as
    an int. Also a ValueError, which a bad slope raised before this type
    existed."""


class DisconnectedSample(ThetaAmoebaError):
    """Neighbor graph of an amoeba sample is not connected."""


class InvalidPoints(ThetaAmoebaError):
    """Point coordinates that are not finite or do not pair up as (x, y)."""


class DegenerateSample(ThetaAmoebaError):
    """Sample point with vanishing section value."""


class ParallelLagrangians(ThetaAmoebaError):
    """Distinct parallel lines never meet."""


class SameLagrangian(ThetaAmoebaError):
    """Identical lines intersect everywhere."""


class ConfigError(ThetaAmoebaError):
    """Invalid experiment configuration."""
