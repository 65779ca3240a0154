"""Finite-structure workbench for ordered BCI-algebras."""

from .core import (
    AXIOM_IDS,
    IDENTITY_IDS,
    BudgetError,
    CheckReport,
    PreconditionError,
    RawStructure,
    ShapeError,
    StructureError,
    Subset,
    UniverseMismatchError,
    ValidatedAlgebra,
    axiom_reports,
    check_axiom,
    check_derived_identities,
    derived_identity_reports,
    order_from_cone,
    reflexive_transitive_closure,
    relation_reports,
    validate,
)
from .substructures import (
    SubstructureKind,
    enumerate_substructures,
    is_closed,
    is_filter,
    is_ordered_filter,
    is_ordered_subalgebra,
    is_subalgebra,
    satisfies_cone_condition,
)
from .morphisms import (
    Mapping,
    MorphismClass,
    check_reflection_condition,
    classify,
    constant_to_unit,
    enumerate_homs,
    enumerate_maps,
    identity_map,
    image,
    kernel,
    kernel_alt,
    preimage,
)
from .products import (
    ProductAlgebra,
    direct_product,
    k_upper_sets,
    pair_map,
    product_structure,
    projection_kernels,
)
from .harness import (
    CLAIM_IDS,
    Counterexample,
    SweepReport,
    enumerate_obci,
    enumerate_obci_naive,
    find_counterexample,
    verify_all,
)
from .fileio import (
    ParseError,
    load_algebra,
    load_map,
    parse_algebra,
    parse_map,
    serialize_algebra,
    serialize_map,
)

__version__ = "0.1.0"
