"""The arrangements the tests run on.

The named examples are data: each is read from its shipped file
fixtures/<name>.json with `Arrangement.from_json`, freshly on every call,
so no test shares an arrangement's caches with another.  The seeded
generators draw affine arrangements deterministically: semigeneral ones,
which `semigeneral_suite` collects with the semigeneral fixtures, and
unrestricted ones (`random_hyperplanes`), of which `higher_dim_cases`
holds three above R^3.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from varchenko.errors import InvalidArrangement
from varchenko.geometry import Arrangement, Hyperplane

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name: str) -> Arrangement:
    """The arrangement of fixtures/<name>.json, freshly read."""
    return Arrangement.from_json((FIXDIR / f"{name}.json").read_text())


def named_fixtures() -> dict[str, Arrangement]:
    """Every shipped fixture by file stem."""
    return {path.stem: fixture(path.stem) for path in sorted(FIXDIR.glob("*.json"))}


def points_on_line(n: int) -> Arrangement:
    return Arrangement(
        "affine",
        1,
        [Hyperplane(f"S{i + 1}", (Fraction(1),), Fraction(i)) for i in range(n)],
    )


def _random_semigeneral(dim: int, n: int, seed: int, draw) -> Arrangement:
    """Redraw n hyperplanes until they form a semigeneral arrangement.

    `draw(rng)` draws one hyperplane's integer normal, then its rational
    offset; draws that make two hyperplanes coincide are discarded whole.
    """
    rng = random.Random(seed)
    while True:
        hyps = []
        for i in range(n):
            normal, offset = draw(rng)
            hyps.append(Hyperplane(f"S{i + 1}", tuple(map(Fraction, normal)), offset))
        try:
            arr = Arrangement("affine", dim, hyps)
        except InvalidArrangement:
            continue
        if arr.is_semigeneral():
            return arr


def _nonzero_vector(rng: random.Random, dim: int, bound: int) -> tuple[int, ...]:
    v = (0,) * dim
    while not any(v):
        v = tuple(rng.randint(-bound, bound) for _ in range(dim))
    return v


def random_generic_lines(n: int, seed: int) -> Arrangement:
    """Random semigeneral line arrangement with small rational coefficients."""

    def draw(rng):
        normal = _nonzero_vector(rng, 2, 6)
        return normal, Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    return _random_semigeneral(2, n, seed, draw)


def random_parallel_heavy_lines(n: int, seed: int) -> Arrangement:
    """Random semigeneral lines drawn from four slope classes, so parallel
    pairs are frequent."""
    slopes = [(1, 0), (0, 1), (1, 1), (1, -1)]

    def draw(rng):
        normal = rng.choice(slopes)
        return normal, Fraction(rng.randint(-8, 8), rng.randint(1, 3))

    return _random_semigeneral(2, n, seed, draw)


def random_generic_planes(n: int, seed: int) -> Arrangement:
    def draw(rng):
        normal = _nonzero_vector(rng, 3, 4)
        return normal, Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    return _random_semigeneral(3, n, seed, draw)


def random_hyperplanes(n: int, dim: int, bound: int, seed: int) -> Arrangement:
    """n affine hyperplanes in R^dim, normals and offsets uniform integers
    in [-bound, bound], drawn from `seed` (a zero normal is redrawn)."""
    rng = random.Random(seed)
    hyperplanes = []
    for i in range(n):
        normal = [0] * dim
        while not any(normal):
            normal = [rng.randint(-bound, bound) for _ in range(dim)]
        offset = rng.randint(-bound, bound)
        hyperplanes.append(
            Hyperplane(f"S{i + 1}", tuple(map(Fraction, normal)), Fraction(offset))
        )
    return Arrangement("affine", dim, hyperplanes)


def higher_dim_cases() -> list[tuple[str, Arrangement]]:
    """Affine arrangements in R^4, R^5 and R^6, with 386, 219 and 466
    regions; the fixtures and the benchmark inputs stop at R^3."""
    return [
        (f"random_hyperplanes{args}", random_hyperplanes(*args))
        for args in ((10, 4, 9, 1), (8, 5, 9, 3), (9, 6, 9, 2))
    ]


def semigeneral_suite() -> list[tuple[str, Arrangement]]:
    """25+ semigeneral arrangements: the semigeneral fixtures plus seeded
    generated ones."""
    names = (
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
    suite = [(name, fixture(name)) for name in names]
    for n in range(2, 5):
        suite.append((f"points_on_line_{n}", points_on_line(n)))
    for n in range(3, 9):
        suite.append((f"random_lines_{n}", random_generic_lines(n, 100 + n)))
    for n in range(4, 8):
        suite.append((f"random_lines_{n}b", random_generic_lines(n, 500 + n)))
    for n in range(3, 7):
        suite.append((f"random_planes_{n}", random_generic_planes(n, 200 + n)))
    for n in (5, 6):
        suite.append(
            (f"random_parallel_heavy_{n}", random_parallel_heavy_lines(n, 900 + n))
        )
    return suite
