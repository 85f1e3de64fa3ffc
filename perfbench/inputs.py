"""Seeded benchmark inputs, checked against the library's size caps.

Every generated arrangement is a fixed *base* configuration moved by a
random invertible affine map drawn from the run's seed, with each
hyperplane then written as a primitive integer equation.  An affine map
keeps every region's sign vector, so all seeds give the same regions, the
same Varchenko matrix and the same elimination; only the coordinates that
face enumeration and restriction compute with change.  Drawing a fresh
combinatorial type per seed instead made the 11-region determinant take
between 17 s and 26 s and `diagonalize` at 56 regions between 2.4 s and
3.6 s (Python 3.11, one core of a 2-vCPU x86-64 Linux VM), which would
hide any change smaller than that spread.

The base configurations are drawn once from fixed seeds by this module's
own generator, so a change to `varchenko.fixtures` cannot change them.
The library receives only the JSON text.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

# Size caps documented by the library.  An input over one of them would
# time an early TooLarge exit instead of the work.
MAX_HYPERPLANES = 16  # face enumeration
MAX_ORACLE_REGIONS = 12  # det_bruteforce
MAX_MINOR_PAIRS = 10**6  # gcd_minors, 2x2 minors of the r x r matrix
MAX_SNF_SIZE = 64  # integer_snf

# Shipped fixtures: (mode, dim, name prefix, rows of normal + offset).
_FIXTURES = {
    "single_line": ("affine", 1, "S", [(1, 0)]),
    "two_generic_lines": ("affine", 2, "S", [(1, 0, 0), (0, 1, 0)]),
    "three_generic_lines": ("affine", 2, "S", [(1, 0, 0), (0, 1, 0), (1, 1, 1)]),
    "five_generic_lines": (
        "affine",
        2,
        "S",
        [(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, -1, "1/3"), (2, 1, "7/5")],
    ),
    "three_parallel_lines": ("affine", 2, "S", [(1, 0, 0), (1, 0, 1), (1, 0, 2)]),
    "two_parallel_one_crossing": ("affine", 2, "S", [(1, 0, 0), (1, 0, 1), (0, 1, 0)]),
    "two_pairs_parallel": (
        "affine",
        2,
        "S",
        [(1, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 1)],
    ),
    "three_parallel_two_generic": (
        "affine",
        2,
        "S",
        [(1, 0, 0), (1, 0, 1), (1, 0, 2), (0, 1, 0), (1, 1, "5/2")],
    ),
    "three_parallel_planes": (
        "affine",
        3,
        "S",
        [(1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 0, 2)],
    ),
    "two_central_circles": ("central", 2, "S", [(1, 0, 0, 0), (0, 1, 0, 0)]),
    "three_central_spheres": (
        "central",
        3,
        "S",
        [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)],
    ),
    "three_concurrent_lines": ("affine", 2, "S", [(1, 0, 0), (0, 1, 0), (1, 1, 0)]),
    "three_concurrent_central": (
        "central",
        2,
        "S",
        [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)],
    ),
    "pencil_four_planes": (
        "affine",
        3,
        "P",
        [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (1, -1, 0, 0)],
    ),
}

# Hyperplanes (0-based) of the flat whose dimension is deficient.
_FIXTURE_DEFICIENT = {
    "three_concurrent_lines": (0, 1, 2),
    "three_concurrent_central": (0, 1, 2),
    "pencil_four_planes": (0, 1, 2, 3),
}

_SEMIGENERAL_FIXTURES = (
    "single_line",
    "two_generic_lines",
    "three_generic_lines",
    "five_generic_lines",
    "three_parallel_lines",
    "two_parallel_one_crossing",
    "two_pairs_parallel",
    "three_parallel_two_generic",
    "three_parallel_planes",
    "two_central_circles",
    "three_central_spheres",
)
_DEGENERATE_FIXTURES = (
    "three_concurrent_lines",
    "three_concurrent_central",
    "pencil_four_planes",
)

# Generated inputs per workload: (family, dim, n).  A "generic" base has no
# parallel pair and no dim + 1 hyperplanes through a point; a "triple" base
# is generic except that its first three lines meet in one point.
_GENERATED = {
    "semigeneral": (
        ("generic", 2, 8),
        ("generic", 2, 10),
        ("generic", 2, 12),
        ("generic", 3, 5),
        ("generic", 3, 6),
    ),
    "oracle": (("generic", 3, 3), ("generic", 2, 4)),
    "degenerate": (("triple", 2, 6), ("triple", 2, 8), ("triple", 2, 9)),
}

WORKLOADS = {
    "semigeneral": _SEMIGENERAL_FIXTURES,
    "oracle": ("two_pairs_parallel",) + _DEGENERATE_FIXTURES,
    "degenerate": _DEGENERATE_FIXTURES,
}


class InputTooLarge(ValueError):
    """A generated input exceeds a documented size cap."""


@dataclass(frozen=True)
class Input:
    """One op's input: the arrangement JSON and what the op must find."""

    name: str
    text: str
    n: int
    regions: int  # Zaslavsky count, computed here without the library
    small: bool  # shipped fixture, part of the small rung
    deficient: tuple[int, ...] = ()  # hyperplanes of the deficient flat


# ----------------------------------------------------------------------
# exact linear algebra on rational rows


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def count_regions(mode: str, rows: list[tuple[Fraction, ...]]) -> int:
    """Region count by Zaslavsky/Whitney: the sum of (-1)^(|S| - rank S)
    over the subsets S of hyperplanes with a common point.

    Rows are normal + offset.  A central arrangement's regions on the
    sphere are the cones of the linear arrangement, so every subset
    counts there."""
    normals = [list(r[:-1]) for r in rows]
    augmented = [list(r) for r in rows]
    total = 0

    def extend(chosen: list[int], start: int) -> None:
        nonlocal total
        rank = _rank([normals[i] for i in chosen]) if chosen else 0
        if mode != "central" and chosen:
            if _rank([augmented[i] for i in chosen]) != rank:
                return  # no common point, and no superset has one
        total += (-1) ** ((len(chosen) - rank) % 2)
        for i in range(start, len(rows)):
            extend(chosen + [i], i + 1)

    extend([], 0)
    return total


def _det(rows: list[list[Fraction]]) -> Fraction:
    rows = [list(r) for r in rows]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for i in range(col + 1, n):
            f = rows[i][col] / rows[col][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return det


# ----------------------------------------------------------------------
# base configurations


def _is_generic_with(rows: list[tuple[Fraction, ...]], new: tuple[Fraction, ...], dim: int, skip) -> bool:
    """Adding `new` keeps every dim normals independent and no dim + 1
    hyperplanes through one point, except for subsets `skip` accepts."""
    for k in range(1, dim + 1):
        for subset in combinations(range(len(rows)), k):
            if skip(subset):
                continue
            chosen = [rows[i] for i in subset] + [new]
            if k < dim:
                if _rank([list(r[:-1]) for r in chosen]) < k + 1:
                    return False
            elif _det([list(r) for r in chosen]) == 0:
                return False
    return True


def _random_row(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    normal = [0] * dim
    while not any(normal):
        normal = [rng.randint(-6, 6) for _ in range(dim)]
    offset = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return tuple(Fraction(c) for c in normal) + (offset,)


def _base(family: str, dim: int, n: int) -> list[tuple[Fraction, ...]]:
    rng = random.Random(f"base:{family}:{dim}:{n}")
    rows: list[tuple[Fraction, ...]] = []
    if family == "triple":
        # lines 0 and 1 cross at p; line 2 passes through p
        while len(rows) < 2:
            row = _random_row(rng, dim)
            if _is_generic_with(rows, row, dim, lambda s: False):
                rows.append(row)
        (a1, b1, c1), (a2, b2, c2) = rows
        det = a1 * b2 - a2 * b1
        p = ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)
        while len(rows) < 3:
            a, b = _random_row(rng, dim)[:2]
            row = (a, b, a * p[0] + b * p[1])
            if _is_generic_with(rows, row, dim, lambda s: s == (0, 1)):
                rows.append(row)
    while len(rows) < n:
        row = _random_row(rng, dim)
        if _is_generic_with(rows, row, dim, lambda s: False):
            rows.append(row)
    return rows


def _moved(rng: random.Random, rows, dim: int) -> list[tuple[int, ...]]:
    """The base in the coordinates y with x = M y + t, as primitive
    integer rows.

    The hyperplane a.x = c becomes (M^T a).y = c - a.t; scaling by a
    positive number keeps its positive side."""
    while True:
        M = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
        if _det(M):
            break
    t = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)]
    out = []
    for row in rows:
        a, c = row[:-1], row[-1]
        values = [sum(M[j][i] * a[j] for j in range(dim)) for i in range(dim)]
        values.append(c - sum(x * y for x, y in zip(a, t)))
        scale = 1
        for v in values:
            scale = scale * v.denominator // gcd(scale, v.denominator)
        ints = [int(v * scale) for v in values]
        g = 0
        for v in ints:
            g = gcd(g, v)
        out.append(tuple(v // g for v in ints))
    return out


# ----------------------------------------------------------------------
# assembly


def _to_json(mode: str, dim: int, prefix: str, rows) -> str:
    return json.dumps(
        {
            "mode": mode,
            "dim": dim,
            "hyperplanes": [
                {
                    "name": f"{prefix}{i + 1}",
                    "normal": [str(c) for c in row[:-1]],
                    "offset": str(row[-1]),
                }
                for i, row in enumerate(rows)
            ],
        }
    )


def _check_caps(workload: str, inp: Input) -> None:
    if inp.n > MAX_HYPERPLANES:
        raise InputTooLarge(f"{inp.name}: {inp.n} hyperplanes > {MAX_HYPERPLANES}")
    if workload == "oracle" and inp.regions > MAX_ORACLE_REGIONS:
        raise InputTooLarge(
            f"{inp.name}: {inp.regions} regions > oracle cap {MAX_ORACLE_REGIONS}"
        )
    if workload == "degenerate":
        pairs = comb(inp.regions, 2) ** 2
        if pairs > MAX_MINOR_PAIRS:
            raise InputTooLarge(
                f"{inp.name}: {pairs} 2x2 minor pairs > {MAX_MINOR_PAIRS}"
            )
        if inp.regions > MAX_SNF_SIZE:
            raise InputTooLarge(f"{inp.name}: {inp.regions} regions > SNF cap")


def _make_input(name: str, mode: str, dim: int, prefix: str, rows, small: bool, deficient=()) -> Input:
    exact = [tuple(Fraction(c) for c in row) for row in rows]
    return Input(
        name=name,
        text=_to_json(mode, dim, prefix, rows),
        n=len(rows),
        regions=count_regions(mode, exact),
        small=small,
        deficient=tuple(deficient),
    )


def build_inputs(workload: str, seed: int) -> list[Input]:
    """The workload's inputs for `seed`, checked against the size caps.

    Raises InputTooLarge when an input exceeds a cap."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inputs = []
    for name in WORKLOADS[workload]:
        mode, dim, prefix, rows = _FIXTURES[name]
        inputs.append(
            _make_input(name, mode, dim, prefix, rows, True, _FIXTURE_DEFICIENT.get(name, ()))
        )
    for family, dim, n in _GENERATED[workload]:
        name = f"{family}_{'lines' if dim == 2 else 'planes'}_{n}"
        rng = random.Random(f"{seed}:{workload}:{name}")
        rows = _moved(rng, _base(family, dim, n), dim)
        deficient = (0, 1, 2) if family == "triple" else ()
        inputs.append(_make_input(name, "affine", dim, "S", rows, False, deficient))
    for inp in inputs:
        _check_caps(workload, inp)
    return inputs


def digest(inputs: list[Input]) -> str:
    """sha256 of the inputs' names and JSON texts, in workload order."""
    payload = json.dumps([[inp.name, inp.text] for inp in inputs])
    return hashlib.sha256(payload.encode()).hexdigest()
