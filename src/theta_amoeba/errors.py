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


class NonPositive(ThetaAmoebaError):
    """A quantity that must be positive is not.

    A level k that is not an integer >= 1, a tau with Im tau <= 0, or a
    metric tensor that is not positive (semi)definite.
    """


class DisconnectedSample(ThetaAmoebaError):
    """Neighbor graph of an amoeba sample is not connected."""


class EmptySet(ThetaAmoebaError):
    """Empty point set where a nonempty one is required."""


class NotACorrespondence(ThetaAmoebaError):
    """Relation is not total and surjective on both sides."""


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
