"""Structural identifiability of linear compartmental models from graph data.

The package computes input-output equation coefficients two independent
ways (spanning incoming forest sums and symbolic determinants), decides
generic local identifiability via exact Jacobian rank over large prime
fields, and implements model rewrites (leaf edges, input/output moves,
leaks) together with the conditions under which they preserve
identifiability.
"""

from .determinant import (
    IdentityCheckError,
    IoEquation,
    MinorIdentityReport,
    check_minor_forest_signs,
    check_minor_identities,
    check_stripped_minor_identity,
    io_equation,
)
from .families import (
    bidirectional_cycle,
    bidirectional_tree_model,
    catenary,
    is_bidirectional_tree,
    labeled_trees,
    mammillary,
    reference_models,
    reference_verdicts,
)
from .forests import (
    forest_sums_by_size,
    lhs_coefficients,
    nonconstant_counts,
    rhs_coefficients,
)
from .graphs import (
    AuxGraph,
    compartmental_matrix,
    flip_into_leak,
    leak_augmented,
    strip_outgoing,
)
from .identify import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    CoefficientMap,
    DimReport,
    NoInputError,
    NotATreeError,
    NotStronglyConnectedError,
    RankReport,
    Verdict,
    classify_tree,
    coefficient_map,
    coefficient_maps,
    count_criterion,
    decide_identifiability,
    expected_dimension,
    generic_rank,
    generic_ranks,
    isc_sufficiency,
    tree_identifiable,
    verdict_to_dict,
)
from .model import (
    Model,
    ModelValidationError,
    distance,
    inductively_strong_order,
    is_inductively_strongly_connected,
    is_strongly_connected,
    load_model,
    model_to_dict,
    param_vector,
    parse_model,
    relabel,
    serialize_model,
)
from .poly import (
    PRIMES,
    FieldPoint,
    Param,
    Poly,
)
from .transforms import (
    Transform,
    TransformError,
    TransformResult,
    add_leaf_edge,
    add_leaf_move_input,
    add_leaf_move_output,
    add_leak,
    apply_transform,
    remove_leak,
    verify_rank_relation,
)

__version__ = "0.1.0"
