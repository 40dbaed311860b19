"""Numerics for theta-function section bases on principally polarized tori.

Covers gauge-fixed section evaluation, finite Heisenberg symmetry, Bergman
and balanced metrics, moment-map amoebas, the Gromov-Hausdorff convergence
sweep of the embedded torus to its base, fiber quantization, and a rank-one
mirror check.
"""

from .errors import (
    ConfigError,
    DegenerateSample,
    DisconnectedSample,
    InvalidPoints,
    MixedLevels,
    NonPositive,
    NotIntegral,
    NotPositive,
    NotSymmetric,
    ParallelLagrangians,
    SameLagrangian,
    ThetaAmoebaError,
    TruncationOverflow,
)

__version__ = "0.1.0"
