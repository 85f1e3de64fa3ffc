"""The workloads' ops and the loop that runs one pass over the inputs.

Each op parses its own JSON text, so no cached region, face or poset
survives from an earlier op, makes the public calls of one CLI path, and
checks what they return.  An op that raises or fails a check is counted
as failed; the pass goes on with the next input.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from varchenko import (
    Arrangement,
    build_varchenko,
    det_bruteforce,
    det_formula,
    diagonalize,
    expected_diagonal,
    gcd_minors,
    integer_snf,
    obstruction_report,
    ordering,
)
from varchenko.matinvariants import int_rank

from inputs import Input


class CheckFailed(Exception):
    """An op's output differs from what the benchmark expects."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _factor_key(entry) -> tuple:
    return tuple(sorted((str(base), e) for base, e in entry.exponent_map().items()))


def _geometry(inp: Input, tr, counts: Counter) -> Arrangement:
    with tr.span("geometry.from_json"):
        arr = Arrangement.from_json(inp.text)
    with tr.span("geometry.regions"):
        regions = arr.regions()
    with tr.span("geometry.faces"):
        faces = arr.faces()
    with tr.span("geometry.poset"):
        poset = arr.poset()
    counts["geometry.regions_n"] += len(regions)
    counts["geometry.faces_n"] += len(faces)
    counts["geometry.flats_n"] += len(poset)
    _check(
        len(regions) == inp.regions,
        f"{len(regions)} regions, Zaslavsky count is {inp.regions}",
    )
    return arr


def semigeneral_op(inp: Input, tr, counts: Counter) -> None:
    """`varchenko diagonalize --certificate`, plus the determinant formula
    and the predicted diagonal that the certificate is checked against."""
    arr = _geometry(inp, tr, counts)
    with tr.span("diagonalize.ordering"):
        ordering(arr)
    with tr.span("varmatrix.build_varchenko"):
        build_varchenko(arr)
    with tr.span("diagonalize.diagonalize"):
        cert = diagonalize(arr)
    with tr.span("diagonalize.cert_to_json"):
        text = cert.to_json()
    with tr.span("varmatrix.det_formula"):
        det = det_formula(arr)
    with tr.span("diagonalize.expected_diagonal"):
        expected = expected_diagonal(arr)
    counts["diagonalize.cert_json_bytes"] += len(text.encode())
    counts["diagonalize.cert_nonzero_entries"] += sum(
        not e.is_zero() for m in (cert.P, cert.Q) for row in m for e in row
    )
    _check(cert.checks.get("pvq_equals_d") is True, "certificate check P V Q = D failed")
    _check(
        sorted(map(_factor_key, cert.diagonal)) == sorted(map(_factor_key, expected)),
        "diagonal differs from expected_diagonal as a multiset",
    )
    summed: Counter = Counter()
    for entry in cert.diagonal:
        for base, e in entry.factors:
            summed[base] += e
    _check(
        dict(summed) == det.exponent_map(),
        "diagonal factors do not multiply to det_formula",
    )


def oracle_op(inp: Input, tr, counts: Counter) -> None:
    """`varchenko det --method both`: the factored formula, expanded,
    against the fraction-free brute-force determinant."""
    arr = _geometry(inp, tr, counts)
    with tr.span("varmatrix.det_formula"):
        factored = det_formula(arr)
    with tr.span("polyring.expand"):
        expanded = factored.expand()
    with tr.span("varmatrix.build_varchenko"):
        matrix = build_varchenko(arr)
    with tr.span("varmatrix.det_bruteforce"):
        brute = det_bruteforce(matrix)
    counts["varmatrix.det_terms_n"] += len(brute.terms)
    _check(brute == expanded, "brute-force determinant differs from the formula")


def degenerate_op(inp: Input, tr, counts: Counter) -> None:
    """`varchenko obstruct --format json`, plus the determinant formula
    whose mixed factor names the deficient flat."""
    arr = _geometry(inp, tr, counts)
    with tr.span("matinvariants.obstruction_report"):
        report = obstruction_report(arr)
    with tr.span("matinvariants.report_to_json"):
        report.to_json()
    with tr.span("varmatrix.det_formula"):
        det = det_formula(arr)
    _check(report.all_consistent, "obstruction report has an inconsistent check")
    deficient = frozenset(inp.deficient)
    _check(
        any(base.variables() == deficient for base, _ in det.factors),
        f"det_formula has no mixed factor over hyperplanes {sorted(deficient)}",
    )


OPS = {
    "semigeneral": semigeneral_op,
    "oracle": oracle_op,
    "degenerate": degenerate_op,
}


def probe_matinvariants(inp: Input, tr) -> None:
    """Time gcd_minors, int_rank and integer_snf on the specialisations
    `obstruction_report` makes, outside any op."""
    arr = Arrangement.from_json(inp.text)
    v = build_varchenko(arr)
    threes = v.substitute_all(3).to_int_grid()
    ones = v.substitute_all(1).to_int_grid()
    singles = [
        v.substitute({j: 3 if j == i else 0 for j in range(arr.n)}).to_int_grid()
        for i in range(arr.n)
    ]
    with tr.span("matinvariants.gcd_minors"):
        gcd_minors(threes, 2)
    with tr.span("matinvariants.int_rank"):
        int_rank(ones)
    with tr.span("matinvariants.integer_snf"):
        for grid in singles:
            integer_snf(grid)


@dataclass
class PassResult:
    start: float
    end: float
    ops: dict[str, tuple[float, float]]  # input name -> (start, end)
    failures: list[str]


def run_pass(workload: str, inputs: list[Input], tr, counts: Counter | None = None) -> PassResult:
    """Run the workload's op on each input in order, one after another,
    adding the layers' counts to `counts`."""
    op = OPS[workload]
    counts = Counter() if counts is None else counts
    ops = {}
    failures = []
    start = time.perf_counter()
    for inp in inputs:
        t0 = time.perf_counter()
        try:
            with tr.op(inp.name):
                op(inp, tr, counts)
        except Exception as exc:  # any failure is counted; the pass goes on
            failures.append(f"{inp.name}: {type(exc).__name__}: {exc}")
        ops[inp.name] = (t0, time.perf_counter())
    return PassResult(start, time.perf_counter(), ops, failures)
