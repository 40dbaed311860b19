"""Numerics for theta-function section bases on principally polarized tori.

Covers gauge-fixed section evaluation, finite Heisenberg symmetry, Bergman
and balanced metrics, moment-map amoebas, Gromov-Hausdorff convergence
experiments, fiber quantization, and a rank-one mirror check.
"""

from .errors import (
    ConfigError,
    DegenerateSample,
    DisconnectedSample,
    EmptySet,
    InvalidPoints,
    MixedLevels,
    NonPositive,
    NotACorrespondence,
    NotIntegral,
    NotPositive,
    NotSymmetric,
    ParallelLagrangians,
    SameLagrangian,
    ThetaAmoebaError,
    TruncationOverflow,
)

__version__ = "0.1.0"
