"""Exact Markov chain analysis through spanning-forest weight sums.

Classical chain quantities (stationary law, first-passage times, Kemeny's
constant, the Green and hitting formulas) computed two independent ways:
by enumerating rooted spanning forests, and by exact rational linear
algebra. Wilson-type random-walk samplers draw forests from the same
weights, validated against the enumerated laws. Everything is exact until
a float is explicitly requested.
"""

from .chains import (
    ChainParseError,
    InfeasibleRootSetError,
    Matrix,
    ReducibleChainError,
    TransitionMatrix,
    chain_from_edge_list,
    chain_to_json,
    format_rational,
    laplacian,
    parse_chain,
    parse_rational,
    uniform_chain,
)
from .forests import (
    DEFAULT_GUARD,
    CycleWeights,
    Ecrsf,
    EnumerationGuardError,
    ForestSums,
    RootedForest,
    cayley_count,
    ecrsf_weight,
    enumerate_ecrsf,
    enumerate_forests,
    exact_law,
    forest_weight,
    last_exit_state,
    sigma_pair,
    sigma_r,
    sigma_sums,
    w_ec_sums,
    w_sum,
    w_target_sum,
)
from .formulas import (
    AbsorptionAnalysis,
    ChainAnalysis,
    FeasibilityReport,
    absorption,
    analyze,
    cesaro_forest,
    cesaro_forest_matrix,
    chung_occupation,
    ecrsf_stopped_distribution,
    feasibility,
    green_occupation,
    hitting_distribution,
    kemeny,
    mean_hitting_time,
    mean_return_time,
    mfpt,
    mfpt_via_modified_chain,
    stationary,
)
from .oracle import (
    PeriodicChainError,
    RecurrentClasses,
    SingularMatrixError,
    cesaro_average,
    complete_prism,
    exact_det,
    fundamental_matrix,
    green_matrix_solve,
    hitting_solve,
    irreducibility_certificate,
    kemeny_trace,
    laplacian_cofactor,
    mfpt_solve,
    minor_product_check,
    period,
    prism_tree_count,
    recurrent_classes,
    sigma1_series,
    stationary_solve,
    temperley_check,
    undirected_tree_count,
)
from .wilson import (
    GofReport,
    PathTrace,
    SamplerConfig,
    derive_seed,
    gof_test,
    kkw_sample,
    lerw_path_prob,
    loop_erase,
    sample_ecrsf,
    sample_forests,
    sample_trees,
    wilson_forest,
    wilson_tree,
)

__version__ = "0.1.0"
