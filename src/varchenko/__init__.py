"""Exact Varchenko-matrix toolkit for hyperplane and pseudosphere
arrangements: construction, semigeneral tests, diagonal forms with
certificates, determinant formulas and obstruction diagnostics."""

from .certificate import verify_certificate
from .diagonalize import (
    DiagonalizationCertificate,
    diagonalize,
    expected_diagonal,
    ordering,
    snf_q,
)
from .errors import (
    ClosedFormViolation,
    InconsistentWitness,
    InvalidArrangement,
    InvalidInput,
    NotSemigeneral,
    OrderingStuck,
    SemigeneralInput,
    TooLarge,
    Unsupported,
    VarchenkoError,
)
from .geometry import Arrangement, Flat, Hyperplane, IntersectionPoset
from .matinvariants import (
    ObstructionReport,
    gcd_minors,
    int_rank,
    integer_snf,
    obstruction_report,
)
from .polyring import FactoredPoly, Monomial, Polynomial, parse_polynomial
from .signedsets import (
    AxiomReport,
    SignedFamily,
    SignVector,
    check_composition_closure,
    check_vector_axioms,
)
from .varmatrix import (
    LabeledMatrix,
    build_varchenko,
    det_bruteforce,
    det_formula,
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
    "NotSemigeneral",
    "ObstructionReport",
    "OrderingStuck",
    "Polynomial",
    "SemigeneralInput",
    "SignVector",
    "SignedFamily",
    "TooLarge",
    "Unsupported",
    "VarchenkoError",
    "build_varchenko",
    "check_composition_closure",
    "check_vector_axioms",
    "det_bruteforce",
    "det_formula",
    "diagonalize",
    "expected_diagonal",
    "gcd_minors",
    "int_rank",
    "integer_snf",
    "obstruction_report",
    "ordering",
    "parse_polynomial",
    "snf_q",
    "verify_certificate",
]
