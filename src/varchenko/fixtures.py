"""Named example arrangements and deterministic random generators.

The named fixtures are also shipped as JSON files under fixtures/ at the
repository root; `named_fixtures()` builds them programmatically so tests
do not depend on file paths.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InvalidArrangement
from .geometry import Arrangement, Hyperplane


def _line(name: str, a, b, c) -> Hyperplane:
    return Hyperplane(name, (Fraction(a), Fraction(b)), Fraction(c))


def _plane(name: str, a, b, c, d) -> Hyperplane:
    return Hyperplane(name, (Fraction(a), Fraction(b), Fraction(c)), Fraction(d))


def single_line() -> Arrangement:
    return Arrangement("affine", 1, [Hyperplane("S1", (Fraction(1),), Fraction(0))])


def two_generic_lines() -> Arrangement:
    return Arrangement("affine", 2, [_line("S1", 1, 0, 0), _line("S2", 0, 1, 0)])


def three_generic_lines() -> Arrangement:
    """Three lines bounding a triangle: x = 0, y = 0, x + y = 1."""
    return Arrangement(
        "affine",
        2,
        [_line("S1", 1, 0, 0), _line("S2", 0, 1, 0), _line("S3", 1, 1, 1)],
    )


def five_generic_lines() -> Arrangement:
    """Five lines, no two parallel, no three concurrent."""
    lines = [
        _line("S1", 1, 0, 0),
        _line("S2", 0, 1, 0),
        _line("S3", 1, 1, 1),
        _line("S4", 1, -1, Fraction(1, 3)),
        _line("S5", 2, 1, Fraction(7, 5)),
    ]
    return Arrangement("affine", 2, lines)


def three_concurrent_lines() -> Arrangement:
    """Three distinct lines through the origin: not semigeneral."""
    return Arrangement(
        "affine",
        2,
        [_line("S1", 1, 0, 0), _line("S2", 0, 1, 0), _line("S3", 1, 1, 0)],
    )


def three_concurrent_central() -> Arrangement:
    """The spherical version: three great circles through a point pair."""
    return Arrangement(
        "central",
        2,
        [
            _plane("S1", 1, 0, 0, 0),
            _plane("S2", 0, 1, 0, 0),
            _plane("S3", 1, 1, 0, 0),
        ],
    )


def three_parallel_lines() -> Arrangement:
    return Arrangement(
        "affine",
        2,
        [_line("S1", 1, 0, 0), _line("S2", 1, 0, 1), _line("S3", 1, 0, 2)],
    )


def two_parallel_one_crossing() -> Arrangement:
    return Arrangement(
        "affine",
        2,
        [_line("S1", 1, 0, 0), _line("S2", 1, 0, 1), _line("S3", 0, 1, 0)],
    )


def two_pairs_parallel() -> Arrangement:
    return Arrangement(
        "affine",
        2,
        [
            _line("S1", 1, 0, 0),
            _line("S2", 1, 0, 1),
            _line("S3", 0, 1, 0),
            _line("S4", 0, 1, 1),
        ],
    )


def three_parallel_two_generic() -> Arrangement:
    return Arrangement(
        "affine",
        2,
        [
            _line("S1", 1, 0, 0),
            _line("S2", 1, 0, 1),
            _line("S3", 1, 0, 2),
            _line("S4", 0, 1, 0),
            _line("S5", 1, 1, Fraction(5, 2)),
        ],
    )


def three_parallel_planes() -> Arrangement:
    return Arrangement(
        "affine",
        3,
        [_plane("S1", 1, 0, 0, 0), _plane("S2", 1, 0, 0, 1), _plane("S3", 1, 0, 0, 2)],
    )


def pencil_four_planes() -> Arrangement:
    """Four planes through the z-axis in R^3: not semigeneral."""
    return Arrangement(
        "affine",
        3,
        [
            _plane("P1", 1, 0, 0, 0),
            _plane("P2", 0, 1, 0, 0),
            _plane("P3", 1, 1, 0, 0),
            _plane("P4", 1, -1, 0, 0),
        ],
    )


def two_central_circles() -> Arrangement:
    """Two great circles on the sphere: semigeneral with |L| = r."""
    return Arrangement(
        "central", 2, [_plane("S1", 1, 0, 0, 0), _plane("S2", 0, 1, 0, 0)]
    )


def three_central_spheres() -> Arrangement:
    """Three generic great spheres on S^3: semigeneral with |L| = r."""
    hyps = [
        Hyperplane("S1", (Fraction(1), Fraction(0), Fraction(0), Fraction(0))),
        Hyperplane("S2", (Fraction(0), Fraction(1), Fraction(0), Fraction(0))),
        Hyperplane("S3", (Fraction(0), Fraction(0), Fraction(1), Fraction(0))),
    ]
    return Arrangement("central", 3, hyps)


def points_on_line(n: int) -> Arrangement:
    return Arrangement(
        "affine",
        1,
        [Hyperplane(f"S{i + 1}", (Fraction(1),), Fraction(i)) for i in range(n)],
    )


def suspension_three_generic_lines() -> Arrangement:
    """Covector-mode fixture: the symmetrized face family of the
    three-generic-lines arrangement."""
    return Arrangement(
        "covector", 2, covectors=three_generic_lines().covector_family()
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


def named_fixtures() -> dict[str, Arrangement]:
    """The shipped example arrangements by name."""
    return {
        "single_line": single_line(),
        "two_generic_lines": two_generic_lines(),
        "three_generic_lines": three_generic_lines(),
        "five_generic_lines": five_generic_lines(),
        "three_concurrent_lines": three_concurrent_lines(),
        "three_concurrent_central": three_concurrent_central(),
        "three_parallel_lines": three_parallel_lines(),
        "two_parallel_one_crossing": two_parallel_one_crossing(),
        "two_pairs_parallel": two_pairs_parallel(),
        "three_parallel_two_generic": three_parallel_two_generic(),
        "three_parallel_planes": three_parallel_planes(),
        "pencil_four_planes": pencil_four_planes(),
        "two_central_circles": two_central_circles(),
        "three_central_spheres": three_central_spheres(),
        "suspension_three_generic_lines": suspension_three_generic_lines(),
    }


def semigeneral_suite() -> list[tuple[str, Arrangement]]:
    """25+ semigeneral fixtures: named families plus seeded random ones."""
    suite: list[tuple[str, Arrangement]] = [
        ("single_line", single_line()),
        ("two_generic_lines", two_generic_lines()),
        ("three_generic_lines", three_generic_lines()),
        ("five_generic_lines", five_generic_lines()),
        ("three_parallel_lines", three_parallel_lines()),
        ("two_parallel_one_crossing", two_parallel_one_crossing()),
        ("two_pairs_parallel", two_pairs_parallel()),
        ("three_parallel_two_generic", three_parallel_two_generic()),
        ("three_parallel_planes", three_parallel_planes()),
        ("two_central_circles", two_central_circles()),
        ("three_central_spheres", three_central_spheres()),
    ]
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
