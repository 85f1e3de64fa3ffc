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

from typing import Iterator

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
    adjacent: list[list[int]] = [[] for _ in range(r)]  # region -> its faces
    for f, m in enumerate(table.adjacent):
        for region in bits(m):
            adjacent[region].append(f)

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
    # the faces with exactly one uncolored adjacent region
    single = {f for f, m in enumerate(uncolored) if m and m & (m - 1) == 0}

    def toggle(region: int) -> None:
        """Color an uncolored region, or uncolor a colored one."""
        bit = 1 << region
        for f in adjacent[region]:
            m = uncolored[f] ^ bit
            uncolored[f] = m
            if m and m & (m - 1) == 0:
                single.add(f)
            else:
                single.discard(f)

    def next_candidates() -> list[tuple[int, int, int, int]]:
        """(new flat dim, region, new flat, completed face) for regions
        encompassing exactly one new flat."""
        ready: dict[int, dict[int, int]] = {}
        for f in sorted(single):
            flat = flat_ids[f]
            if flat not in encompassed:
                ready.setdefault(uncolored[f].bit_length() - 1, {})[flat] = f
        out = []
        for region, flats in ready.items():
            if len(flats) == 1:
                [(flat, face)] = flats.items()
                out.append((dims[flat], region, flat, face))
        out.sort()
        return out

    # frames[d] holds the untried candidates after d + 1 colored regions.
    frames: list[Iterator[tuple[int, int, int, int]]] = []
    while len(colored) < r:
        frames.append(iter(next_candidates()))
        while (move := next(frames[-1], None)) is None:
            frames.pop()
            if not frames:
                raise OrderingStuck(
                    "exhaustive search found no valid region ordering (internal bug)"
                )
            toggle(colored.pop())
            encompassed.discard(step_flats.pop())
            step_faces.pop()
        _, region, flat, face = move
        toggle(region)
        colored.append(region)
        encompassed.add(flat)
        step_flats.append(flat)
        step_faces.append(face)
    return RegionOrdering(
        tuple(colored), tuple(step_flats), tuple(table.faces[f] for f in step_faces)
    )


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
