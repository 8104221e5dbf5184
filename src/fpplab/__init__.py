"""First-passage percolation laboratory on sparse random graphs.

Generate graphs with prescribed degrees, race fluid from two sources along
exponential-ish edge weights, and check the measured hopcounts, optimal
weights, and collision processes against the limit laws predicted by the
associated continuous-time branching process.
"""

from .ctbp import (
    BpConfig,
    CtbpConstants,
    OffspringLaw,
    ResidualLife,
    SubcriticalError,
    constants,
    laplace_stieltjes,
    residual_density,
    sample_w,
    simulate_bp,
    solve_malthusian,
    stable_age_moments,
)
from .degrees import (
    DegreeDiagnostics,
    DegreeSequence,
    build_deterministic,
    build_iid,
    diagnostics,
    limit_pmf,
    regular,
)
from .explore import (
    CollisionRecord,
    IsolatedEndpointError,
    PathResult,
    run,
    standardize_marks,
)
from .graphs import (
    LazyPairing,
    WeightedGraph,
    assign_weights,
    pair_configuration,
    sample_rank1,
    sample_uniform_simple,
)
from .montecarlo import (
    ExperimentConfig,
    TrialOutcome,
    VerificationReport,
    calibrate_verifiers,
    run_experiment,
    run_trials,
)
from .weights import (
    WeightDistribution,
    exponential,
    power_exponential,
    shifted_exponential,
    uniform,
    user_table,
)

__version__ = "0.1.0"
