"""Joint user selection, power allocation, and precoding for MU-MIMO downlink.

The solver maximizes a weighted sum of per-user rate lower bounds by power
iteration on a self-consistent generalized eigenvalue problem: selection,
powers, and beam directions all come out of one stacked precoding vector.
"""

from .baselines import (
    mrt,
    rank_adaptive_zf,
    rrzf,
    rzf,
    sus_zf,
    waterfill,
    zf,
    zf_dpc_waterfilling,
)
from .channel import (
    ArrayGeometry,
    OneRingParams,
    Topology,
    additive_error_csit,
    fdd_quantized_csit,
    mmse_csit_tdd,
    okumura_hata_pathloss,
    one_ring_correlation,
    sample_channel,
    uniform_circular_array,
)
from .config import ExperimentConfig, load_config
from .coop import (
    CoopResult,
    build_coop_pairs,
    gpip_coop,
    lambda_coop_log2,
)
from .errors import (
    BelowMinimumDistance,
    ConfigInvalid,
    DenominatorUnderflow,
    DimensionMismatch,
    EigenFailure,
    GpipError,
    NotPositiveDefinite,
    RankDeficient,
)
from .evaluation import (
    CdfCurve,
    RateReport,
    gmi_rate_lb,
    pf_weights,
    rate_cdf,
    true_sinr,
)
from .numerics import (
    BlockDiagonal,
    cholesky_factor,
    hermitian_sqrt,
    rank1_inverse_update,
    solve_hermitian,
)
from .runner import ergodic_sum_se, run, run_link_level, run_system_level
from .solver import (
    EffectivePair,
    GpipResult,
    LiftedPairs,
    build_effective_pairs,
    build_weighted_pair,
    extract_schedule,
    gpip_covfree,
    gpip_iterate,
    kkt_residual,
    objective_log2,
)

__version__ = "0.1.0"
