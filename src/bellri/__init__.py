"""bellri: feasibility of two-setting correlation data under shared uncertainty blocks.

Classifies bipartite (and tripartite) correlator tables as local,
quantum-compatible, or admitting a remote-setting-independent uncertainty
parameter; simulates finite-dimensional quantum scenarios; and searches
scenario space for CHSH extrema.
"""

from .correlators import (
    CorrelatorTable,
    ProbabilityTable,
    TripartiteCorrelatorTable,
    check_no_signaling,
    chsh,
    chsh_max,
    chsh_raw,
    from_probability_table,
    pr_box_table,
)
from .errors import (
    BellRIError,
    DegenerateDataError,
    DegenerateScenarioError,
    MalformedInputError,
    PreconditionError,
)
from .lhv import (
    DeterministicStrategy,
    LhvEnsemble,
    correlators_of,
    enumerate_vertices,
    is_local,
    product_cov_matrix,
    statistics_of,
)
from .linalg import eigenvalues_sym, is_psd
from .multiparty import (
    NPartyCorrelators,
    ZetaArgs,
    monogamy_check,
    nparty_bound_check,
    nparty_from_pairs,
    zeta,
    zeta_bound_check,
)
from .optimizer import (
    OptConfig,
    OptResult,
    ScenarioParams,
    chsh_objective,
    eta_pinned_objective,
    maximize,
    trace_eta_curve,
)
from .qmodel import (
    Observable,
    QuantumMoments,
    QuantumScenario,
    chsh_r_tradeoff_check,
    eta_saturating_scenario,
    higher_moment_uncertainty_check,
    moments,
    outcome_distribution,
    quantum_cov_matrix,
    quantum_tlm_check,
    schrodinger_robertson_check,
    singlet_scenario,
    to_correlator_table,
    tripartite_moments,
    truncated_oscillator_pair,
    tsirelson_eta_bound,
    tsirelson_scenario,
)
from .ri import (
    RInterval,
    Verdict,
    classify,
    epsilon_gap,
    g_theta,
    pr_box_demo,
    r_interval_bipartite,
    ri_feasible_bipartite,
    tlm_check,
    tripartite_r_intervals,
)

__version__ = "0.1.0"
