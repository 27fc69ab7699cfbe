"""bellri: feasibility of two-setting correlation data under shared uncertainty blocks.

Classifies bipartite (and tripartite) correlator tables as local,
quantum-compatible, or admitting a remote-setting-independent uncertainty
parameter; simulates finite-dimensional quantum scenarios; and searches
scenario space for CHSH extrema. Each name below loads its submodule on first
access, so ``import bellri`` loads nothing and a Pearson verdict no NumPy.
"""

from importlib import import_module

_HOME = {name: module for module, names in {     # the submodule that defines each exported name
    "correlators": "CorrelatorTable ProbabilityTable TripartiteCorrelatorTable check_no_signaling chsh "
                   "chsh_max from_probability_table pr_box_table",
    "errors": "BellRIError DegenerateDataError DegenerateScenarioError MalformedInputError PreconditionError",
    "lhv": "DeterministicStrategy LhvEnsemble correlators_of enumerate_vertices is_local product_cov_matrix "
           "statistics_of",
    "linalg": "eigenvalues_sym is_psd",
    "multiparty": "NPartyCorrelators ZetaArgs monogamy_check nparty_bound_check nparty_from_pairs zeta "
                  "zeta_bound_check",
    "optimizer": "OptConfig OptResult ScenarioParams chsh_objective eta_pinned_objective maximize "
                 "trace_eta_curve",
    "qmodel": "Observable QuantumMoments QuantumScenario chsh_r_tradeoff_check eta_saturating_scenario "
              "higher_moment_uncertainty_check moments quantum_cov_matrix quantum_tlm_check "
              "schrodinger_robertson_check to_correlator_table tripartite_moments truncated_oscillator_pair "
              "tsirelson_eta_bound tsirelson_scenario",
    "ri": "RInterval Verdict classify epsilon_gap g_theta pr_box_demo r_interval_bipartite "
          "ri_feasible_bipartite tlm_check tripartite_r_intervals",
}.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Load the submodule that defines ``name`` and keep ``name`` here: later reads are dict hits."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
