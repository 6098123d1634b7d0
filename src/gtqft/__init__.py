"""Exact-arithmetic engine for graded Frobenius algebras over finite groups
and the two-dimensional equivariant field theories they generate.

The package verifies the defining laws of such an algebra, derives the
coproduct and pairing structure from its trace, evaluates combinatorially
described labelled surfaces to exact rational linear maps, and machine
checks that the value of a surface is independent of how it is decomposed.
"""

from .algebra import (
    DerivedStructure,
    GFrobeniusAlgebra,
    check_axioms,
    check_cocommutativity,
    check_frobenius_diagram,
    derive,
    frobenius_untwisted,
    group_algebra,
    load_algebra,
    save_algebra,
)
from .cobordism import (
    Cobordism,
    Piece,
    PieceKind,
    cap,
    cerf_case_words,
    cup,
    cyl,
    id_piece,
    merge,
    parse,
    random_cobordism,
    rewrite_equivalent,
    split,
    swap,
    tensor,
)
from .errors import (
    BudgetExceeded,
    CoproductMismatch,
    DegeneratePairing,
    DimensionMismatch,
    EngineError,
    FlatnessViolation,
    NotAGroup,
    ParseError,
    SchemaError,
    ShapeError,
    SignatureMismatch,
    SingularMatrix,
    UnknownElement,
    UnknownGroup,
)
from .exactlin import Matrix, Tensor3
from .groups import ConjugacyData, FiniteGroup, builtin, builtin_from_string, conjugacy
from .orbifold import OrbifoldAlgebra, orbifold_algebra
from .report import CheckEntry, CheckReport, Witness
from .tqft import (
    Evaluator,
    cerf_check,
    closed_invariant,
    closed_surface_word,
    evaluate,
    hom_count_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CheckEntry",
    "CheckReport",
    "Cobordism",
    "ConjugacyData",
    "CoproductMismatch",
    "DegeneratePairing",
    "DerivedStructure",
    "DimensionMismatch",
    "EngineError",
    "Evaluator",
    "FiniteGroup",
    "FlatnessViolation",
    "GFrobeniusAlgebra",
    "Matrix",
    "NotAGroup",
    "OrbifoldAlgebra",
    "ParseError",
    "Piece",
    "PieceKind",
    "SchemaError",
    "ShapeError",
    "SignatureMismatch",
    "SingularMatrix",
    "Tensor3",
    "UnknownElement",
    "UnknownGroup",
    "Witness",
    "builtin",
    "builtin_from_string",
    "cap",
    "cerf_case_words",
    "cerf_check",
    "check_axioms",
    "check_cocommutativity",
    "check_frobenius_diagram",
    "closed_invariant",
    "closed_surface_word",
    "conjugacy",
    "cup",
    "cyl",
    "derive",
    "evaluate",
    "frobenius_untwisted",
    "group_algebra",
    "hom_count_oracle",
    "id_piece",
    "load_algebra",
    "merge",
    "orbifold_algebra",
    "parse",
    "random_cobordism",
    "rewrite_equivalent",
    "save_algebra",
    "split",
    "swap",
    "tensor",
]
