"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class VarchenkoError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(VarchenkoError):
    """Malformed user input: bad sign string, bad rational, bad JSON shape."""


class InvalidArrangement(VarchenkoError):
    """Arrangement violates a structural invariant (duplicate hyperplane, ...)."""


class Unsupported(VarchenkoError):
    """Operation is not defined for this arrangement mode."""


class TooLarge(VarchenkoError):
    """Input exceeds a documented brute-force size cap."""


class InconsistentWitness(VarchenkoError):
    """A face's witness point does not realise its sign vector (internal bug)."""


class NotDivisible(VarchenkoError):
    """Exact polynomial division has a nonzero remainder."""


class NotSemigeneral(VarchenkoError):
    """Arrangement fails the semigeneral-position test.

    Carries the witness: the defining set whose intersection has the wrong
    dimension, together with the actual and expected dimensions.
    """

    def __init__(self, defining_set, dim, expected_dim):
        self.defining_set = frozenset(defining_set)
        self.dim = dim
        self.expected_dim = expected_dim
        names = ",".join(str(i) for i in sorted(self.defining_set))
        super().__init__(
            f"not semigeneral: B={{{names}}} has dim {dim}, expected {expected_dim}"
        )


class SemigeneralInput(VarchenkoError):
    """Obstruction diagnostics refuse semigeneral arrangements."""


class OrderingStuck(VarchenkoError):
    """No valid region ordering could be completed."""


class PivotDivisionFailure(VarchenkoError):
    """A pivot entry does not divide its row during elimination."""

    def __init__(self, k, n):
        self.k = k
        self.n = n
        super().__init__(f"pivot ({k},{k}) does not divide entry ({k},{n})")


class ClosedFormViolation(VarchenkoError):
    """An elimination step contradicts the predicted closed form (internal bug)."""
