"""graphck: exact symbolic calculus for Cuntz-Krieger families of finite
directed graphs.

The package models finite directed multigraphs, their entrance-free cycle
structure, the Toeplitz and reduced graph transforms, maximal-tail
primitive-ideal catalogs, canonical boundary-path encodings, and an exact
*-algebra of partial isometries with representations on path and boundary
bases, relation verification, gauge de-twisting, and the diagonal conditional
expectation.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraElement,
    GeneratorFamily,
    canonical_family,
    ck_defect,
    diag_expectation,
    element_w_normal_form,
    monomial,
    path_isometry,
    vertex_projection,
    w_normal_form,
    zero,
)
from .boundary import (
    BoundaryPath,
    ShiftExhausted,
    boundary_set,
    canonicalize,
    finite_boundary,
    noncofinal_witness,
    omega_set,
    omega_supported,
    prepend,
    shift,
)
from .cycles import (
    CycleClass,
    CycleCountError,
    canonical_cutting_set,
    canonical_rotation,
    class_of_edge,
    cycle_class,
    entrance_free_classes,
    has_entrance_in,
    is_cutting_set,
    mu_lambda,
    rotations,
    simple_cycles,
)
from .exact import (
    Cyclotomic,
    ExactnessError,
    GaussianRational,
    LevelError,
    PolarCoeff,
)
from .expr import ExprError, parse_element
from .graph import (
    Graph,
    GraphError,
    GraphParseError,
    Path,
    enumerate_paths,
    is_cofinal,
    parse_graph,
    reach_map,
    sources,
    strongly_connected_components,
)
from .reps import (
    BOUNDARY,
    CK,
    LEFT_REGULAR,
    NORMALIZED,
    OMEGA,
    REDUCED,
    TCK,
    TWISTED,
    NotReducedError,
    RelationFailure,
    RelationReport,
    Representation,
    WorkBudgetError,
    apply,
    boundary,
    extract_kappa,
    left_regular,
    min_verification_depth,
    omega,
    operator_equal,
    rescale_family,
    twisted_boundary,
    verify_relations,
)
from .tails import (
    MaximalTail,
    PrimIdealDescriptor,
    classify_tail,
    is_maximal_tail,
    maximal_tails,
    prim_ideal_catalog,
    tail_of_class,
)
from .transform import (
    GeneratorRescaling,
    IdealGenerators,
    ReducedGraph,
    ToeplitzGraph,
    class_phases,
    ikappa_generators,
    jkappa_generators,
    reduced_graph,
    rescale_generators,
    toeplitz_family,
    toeplitz_graph,
)
