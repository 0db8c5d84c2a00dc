"""involq: exhaustive verification for finite sharply 2-transitive groups.

The package builds finite near-fields (prime-power fields and Dickson
twists), realizes their one-dimensional affine groups as fully enumerated
permutation groups, certifies sharp 2-transitivity, constructs and checks
the point-line incidence structure on the involutions, decides splitting,
recovers coordinatizing near-fields, and tabulates the cardinality census
of the involution power sets. Every check is an exhaustive (or explicitly
capped and reported) scan with deterministic witnesses.
"""

from .catalog import CatalogEntry, build_entry, find_entry, run_catalog
from .census import CensusReport, census, verify_xalpha_covering
from .errors import (
    AxiomFailure,
    AxiomRecoveryFailure,
    CharacteristicTwo,
    CharacterizationMismatch,
    ConstructionSanityFailure,
    EvenCharacteristicUnsupported,
    GeometryConditionsFailed,
    InputError,
    InvolqError,
    MalformedDocument,
    NotABijection,
    NotAMember,
    NotDicksonPair,
    NotPrime,
    NotSharply2Transitive,
    NotSplit,
    OrderCapExceeded,
)
from .geometry import (
    Geometry,
    build_geometry,
    check_geometry_conditions,
    divisible_subgroup_scan,
    verify_line_lemma,
)
from .nearfield import (
    NearField,
    is_dickson_pair,
    make_dickson,
    make_field,
    multiplicative_group_summary,
    nearfield_from_json,
    verify_nearfield_axioms,
)
from .permgroup import (
    PermGroup,
    affine_group,
    centralizer,
    compose,
    conjugacy_class,
    conjugate,
    identity_perm,
    invert,
    parse_group_doc,
)
from .pipeline import recover_target, run_verify, verify_group
from .s2t import (
    S2TCertificate,
    certify_sharply_2_transitive,
    characteristic,
    involutions,
    translations,
    verify_basic_properties,
)
from .splitting import (
    Coordinatization,
    SplitReport,
    coordinatize,
    neumann_split_test,
    roundtrip_check,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomFailure", "AxiomRecoveryFailure", "CatalogEntry", "CensusReport",
    "CharacteristicTwo", "CharacterizationMismatch",
    "ConstructionSanityFailure", "Coordinatization", "EvenCharacteristicUnsupported",
    "Geometry", "GeometryConditionsFailed", "InputError", "InvolqError",
    "MalformedDocument", "NearField", "NotABijection", "NotAMember", "NotDicksonPair",
    "NotPrime", "NotSharply2Transitive", "NotSplit", "OrderCapExceeded", "PermGroup",
    "S2TCertificate", "SplitReport", "affine_group", "build_entry", "build_geometry",
    "census", "centralizer", "certify_sharply_2_transitive", "characteristic",
    "check_geometry_conditions", "compose", "conjugacy_class", "conjugate",
    "coordinatize", "divisible_subgroup_scan", "find_entry", "identity_perm", "invert",
    "involutions", "is_dickson_pair", "make_dickson", "make_field",
    "multiplicative_group_summary", "nearfield_from_json", "neumann_split_test",
    "parse_group_doc", "recover_target", "roundtrip_check", "run_catalog", "run_verify",
    "translations", "verify_basic_properties", "verify_group", "verify_line_lemma",
    "verify_nearfield_axioms", "verify_xalpha_covering",
]
