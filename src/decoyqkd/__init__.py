"""Secure key rate bounds for decoy-state QKD with nonorthogonal encoding.

The package computes lower bounds on the secure key generation rate of
weak-coherent-pulse QKD links: decoy-state BB84, worst-case SARG04
without decoys, and SARG04-style nonorthogonal encoding with a
vacuum + three-decoy estimate of the single- and two-photon fractions.
A brute-force per-photon-number model validates every estimate.
"""

from .bounds import (
    IntensityConstraintError,
    IntensitySet,
    PhotonBounds,
    balance_residual,
    estimate_photon_bounds,
)
from .channel import (
    GYS,
    ChannelParams,
    ObservedTally,
    ParameterError,
    UndefinedQberError,
    honest_tally,
    poisson_weight,
    synthesize_tallies,
    transmittance,
)
from .exact import (
    ExactPhotonStats,
    InequalityReport,
    exact_bounds,
    exact_stats,
    reconstruct_gain,
    verify_bound_inequalities,
)
from .rates import (
    PROTOCOLS,
    KeyRatePoint,
    binary_entropy,
    optimal_mu_sarg04,
    rate_bb84_decoy,
    rate_nonorthogonal_decoy,
    rate_sarg04_worst,
    untagged_fraction,
)
from .sweeps import (
    DEFAULT_NU3,
    OPTIMAL_MU,
    NeverSecureError,
    ScanLimitError,
    SweepSpec,
    construct_intensity_set,
    exact_ceiling_km,
    max_secure_distance,
    rate_at,
    sweep,
)

__version__ = "0.1.0"
