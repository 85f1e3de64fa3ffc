"""Constructive diagonalization of the Varchenko matrix of a semigeneral
arrangement, with a verifiable transformation certificate.

The pipeline is: order the regions so that each new region extends the
encompassed part of the flat poset by exactly one flat, completing one face
of it; then write the row transform P in closed form from those faces.  The
ordering and the step faces are the certificate, checked rather than
trusted, and V is not built: P is a unit lower-triangular matrix times the
ordering's permutation, and P * V * P^T is diagonal by the paper's face
identity, checked on masks by `certificate.prove`, which `verify`
shares.  `replay_elimination`, the elimination P summarises, is a test
reference in tests/reference.py.
"""

from __future__ import annotations

from .certificate import (
    DiagonalizationCertificate,
    RegionOrdering,
    _diagonal_entry,
    _semigeneral_gate,
    prove,
)
from .errors import ClosedFormViolation, OrderingStuck
from .geometry import Arrangement
from .polyring import FactoredPoly
from .signedsets import bits


def ordering(arrangement: Arrangement) -> RegionOrdering:
    """Find a region order whose k-th prefix encompasses exactly k flats.

    Starts from the canonical first region (the all-positive region under
    the implied reorientation; separation data and adjacency are invariant
    under reorienting, so no coordinates change).  Greedy choice: among the
    uncolored regions that encompass exactly one new flat, prefer the one
    whose new flat has the smallest dimension, tie-broken by region id, with
    full backtracking behind the greedy front (an explicit stack, so the
    depth is not bounded by the interpreter's recursion limit).

    The front is kept up to date rather than rescanned: each uncolored
    region holds, by flat, the faces whose one uncolored adjacent region it
    is, and is a candidate move exactly when one of those flats is not yet
    encompassed, with that flat's largest face.  Coloring or uncoloring a
    region changes only the faces adjacent to it, and encompassing a flat
    only the regions holding it, so a step costs the faces it changes and
    a pass over the candidates for the least one.
    """
    _semigeneral_gate(arrangement)
    regions = arrangement.regions()
    poset = arrangement.poset()
    r = len(regions)
    if len(poset) != r:
        raise OrderingStuck(
            f"flat count {len(poset)} differs from region count {r}; the "
            f"one-new-flat-per-region coloring cannot complete"
        )
    table = arrangement.face_table()
    flat_ids = table.flats
    dims = [f.dim for f in poset.flats]

    base = 0
    uncolored = [m & ~(1 << base) for m in table.adjacent]
    colored = [base]
    completed = [f for f, m in enumerate(uncolored) if m == 0]
    encompassed = {flat_ids[f] for f in completed}
    if len(encompassed) != 1:
        raise OrderingStuck(
            f"coloring the base region encompassed {len(encompassed)} flats"
        )
    step_flats = [flat_ids[completed[0]]]
    step_faces = [completed[0]]
    # the base's flat stays encompassed, so its faces never make a move
    adjacent: list[list[int]] = [[] for _ in range(r)]  # region -> its faces
    for f, m in enumerate(table.adjacent):
        if flat_ids[f] != step_flats[0]:
            for region in bits(m):
                adjacent[region].append(f)

    # the front: region -> flat -> the faces whose one uncolored adjacent
    # region it is; flat -> the regions holding such a face on it; region
    # -> its move, if it encompasses exactly one new flat
    pending: list[dict[int, set[int]]] = [{} for _ in range(r)]
    holders: list[set[int]] = [set() for _ in range(len(poset))]
    candidates: dict[int, tuple[int, int, int, int]] = {}

    def hold(f: int, region: int) -> int:
        flat = flat_ids[f]
        if flat in pending[region]:
            pending[region][flat].add(f)
        else:
            pending[region][flat] = {f}
            holders[flat].add(region)
        return region

    def drop(f: int, region: int) -> int:
        flat = flat_ids[f]
        faces = pending[region][flat]
        faces.discard(f)
        if not faces:
            del pending[region][flat]
            holders[flat].discard(region)
        return region

    def update(region: int) -> None:
        new = [flat for flat in pending[region] if flat not in encompassed]
        if len(new) == 1:
            [flat] = new
            candidates[region] = dims[flat], region, flat, max(pending[region][flat])
        else:
            candidates.pop(region, None)

    def play(region: int, flat: int, color: bool) -> None:
        """Color a region and encompass its new flat, or undo that: only
        the faces adjacent to the region change their uncolored masks."""
        bit = 1 << region
        changed = set()
        for f in adjacent[region]:
            old = uncolored[f]
            uncolored[f] = new = old ^ bit
            if old and not old & (old - 1):
                changed.add(drop(f, old.bit_length() - 1))
            if new and not new & (new - 1):
                changed.add(hold(f, new.bit_length() - 1))
        if color:
            encompassed.add(flat)
        else:
            encompassed.discard(flat)
        for holder in changed | holders[flat]:
            update(holder)

    for f, m in enumerate(uncolored):
        if m and not m & (m - 1) and flat_ids[f] != step_flats[0]:
            hold(f, m.bit_length() - 1)
    for region, held in enumerate(pending):
        if held:
            update(region)

    # tried[d] is the move made after d + 1 colored regions; on backtracking
    # the next one is the least candidate above it: the state is restored,
    # so the candidates are the ones that move was the least of
    tried: list[tuple[int, int, int, int]] = []
    while len(colored) < r:
        move = min(candidates.values(), default=None)
        while move is None:
            if not tried:
                raise OrderingStuck(
                    "exhaustive search found no valid region ordering (internal bug)"
                )
            last = tried.pop()
            play(colored.pop(), step_flats.pop(), False)
            step_faces.pop()
            move = min((m for m in candidates.values() if m > last), default=None)
        _, region, flat, face = move
        play(region, flat, True)
        tried.append(move)
        colored.append(region)
        step_flats.append(flat)
        step_faces.append(face)
    return RegionOrdering(tuple(colored), tuple(step_flats), tuple(step_faces))


def diagonalize(arrangement: Arrangement) -> DiagonalizationCertificate:
    """Reduce V to its diagonal form and prove the result: `prove` on the
    region order `ordering` finds.  Neither V nor any intermediate matrix
    of the elimination is formed; the test reference `replay_elimination`
    checks those."""
    return prove(arrangement, ordering(arrangement))


def expected_diagonal(arrangement: Arrangement) -> list[FactoredPoly]:
    """The diagonal multiset read directly off the flat poset."""
    _semigeneral_gate(arrangement)
    return [_diagonal_entry(flat) for flat in arrangement.poset()]


def snf_q(arrangement: Arrangement) -> list[tuple[int, int]]:
    """Multiplicities of (1 - q^2)^k on the diagonal after x_i := q.

    Returns (exponent, multiplicity) pairs sorted by exponent; asserts the
    multiplicity of exponent k equals the number of flats of dimension
    dim - k.
    """
    cert = diagonalize(arrangement)
    counts: dict[int, int] = {}
    for factored in cert.diagonal:
        exponent = sum(e for _, e in factored.factors)
        counts[exponent] = counts.get(exponent, 0) + 1
    poset = arrangement.poset()
    dim_counts = poset.dim_counts()
    for k, mult in counts.items():
        if dim_counts.get(arrangement.dim - k, 0) != mult:
            raise ClosedFormViolation(
                f"(1-q^2)^{k} has multiplicity {mult} but "
                f"{dim_counts.get(arrangement.dim - k, 0)} flats have "
                f"dimension {arrangement.dim - k}"
            )
    total_flats = sum(dim_counts.values())
    if sum(counts.values()) != total_flats:
        raise ClosedFormViolation("diagonal size differs from flat count")
    return sorted(counts.items())
