"""Exact Varchenko-matrix toolkit for hyperplane and pseudosphere
arrangements: construction, semigeneral tests, diagonal forms with
certificates, determinant formulas and obstruction diagnostics."""

from .diagonalize import (
    DiagonalizationCertificate,
    pivot_step,
    diagonalize,
    encompassed_flats,
    expected_diagonal,
    ordering,
    snf_q,
)
from .errors import (
    ClosedFormViolation,
    InconsistentWitness,
    InvalidArrangement,
    InvalidInput,
    NotDivisible,
    NotSemigeneral,
    OrderingStuck,
    PivotDivisionFailure,
    SemigeneralInput,
    TooLarge,
    Unsupported,
    VarchenkoError,
)
from .geometry import Arrangement, Flat, Hyperplane, IntersectionPoset
from .matinvariants import (
    ObstructionReport,
    gcd_minors,
    integer_snf,
    obstruction_report,
    deletion_reduction,
)
from .polyring import FactoredPoly, Monomial, Polynomial, exact_div, parse_polynomial
from .signedsets import (
    AxiomReport,
    SignedFamily,
    SignVector,
    check_composition_closure,
    check_vector_axioms,
    compose,
    opposite,
    separation_set,
)
from .varmatrix import (
    LabeledMatrix,
    build_varchenko,
    det_bruteforce,
    det_formula,
    distance,
    equal_up_to_relabeling,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "AxiomReport",
    "ClosedFormViolation",
    "DiagonalizationCertificate",
    "FactoredPoly",
    "Flat",
    "Hyperplane",
    "InconsistentWitness",
    "IntersectionPoset",
    "InvalidArrangement",
    "InvalidInput",
    "LabeledMatrix",
    "Monomial",
    "NotDivisible",
    "NotSemigeneral",
    "ObstructionReport",
    "OrderingStuck",
    "PivotDivisionFailure",
    "Polynomial",
    "SemigeneralInput",
    "SignVector",
    "SignedFamily",
    "TooLarge",
    "Unsupported",
    "VarchenkoError",
    "pivot_step",
    "build_varchenko",
    "check_composition_closure",
    "check_vector_axioms",
    "compose",
    "det_bruteforce",
    "det_formula",
    "diagonalize",
    "distance",
    "encompassed_flats",
    "equal_up_to_relabeling",
    "exact_div",
    "expected_diagonal",
    "gcd_minors",
    "integer_snf",
    "obstruction_report",
    "opposite",
    "ordering",
    "parse_polynomial",
    "deletion_reduction",
    "separation_set",
    "snf_q",
]
