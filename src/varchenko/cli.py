"""Command-line front end.

Subcommands: regions, faces, poset, charpoly, matrix, det, check,
diagonalize, verify, snf-q, obstruct, axioms.  Exit codes: 0 success, 2
invalid input, 3 precondition failure, 4 size cap exceeded, 1 internal
error or, for verify, a certificate that does not hold.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certificate import verify_certificate
from .diagonalize import diagonalize, snf_q
from .errors import (
    InvalidArrangement,
    InvalidInput,
    NotSemigeneral,
    OrderingStuck,
    SemigeneralInput,
    TooLarge,
    Unsupported,
    VarchenkoError,
)
from .geometry import Arrangement, charpoly_string
from .matinvariants import obstruction_report
from .polyring import parse_json
from .signedsets import (
    SignedFamily,
    check_composition_closure,
    check_vector_axioms,
)
from .varmatrix import LabeledMatrix, build_varchenko, det_bruteforce, det_formula


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varchenko",
        description="Exact Varchenko-matrix toolkit for hyperplane arrangements",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument(
            "input", type=Path, help="input file (arrangement JSON unless noted)"
        )
        p.add_argument(
            "--format", choices=("text", "json"), default="text", dest="format"
        )
        p.add_argument("--output", default=None, help="write output here instead of stdout")
        return p

    add("regions", "list the region sign vectors in canonical order")
    add("faces", "list all face sign vectors")
    add("poset", "intersection poset with dimensions and Moebius values")
    add("charpoly", "characteristic polynomial of the arrangement")
    add("matrix", "the Varchenko matrix")
    p = add("det", "determinant of the Varchenko matrix")
    p.add_argument(
        "--method", choices=("formula", "bruteforce", "both"), default="formula"
    )
    p.add_argument(
        "--from-json",
        action="store_true",
        help="input is a matrix JSON (as emitted by `matrix --format json`)",
    )
    add("check", "semigeneral-position verdict with witness")
    p = add("diagonalize", "diagonal form with transformation certificate")
    p.add_argument("--certificate", default=None, help="write the certificate JSON here")
    p = add("verify", "re-prove a certificate written by diagonalize --certificate")
    p.add_argument("certificate", type=Path, help="the certificate JSON (format 2)")
    add("snf-q", "Smith normal form multiplicities after x_i := q")
    add("obstruct", "obstruction diagnostics for a non-semigeneral arrangement")
    add("axioms", "check the signed-family axioms on a covector list")
    return parser


def _load_arrangement(path: Path) -> Arrangement:
    return Arrangement.from_json(path.read_text())


def _load_covector_family(path: Path) -> SignedFamily:
    text = path.read_text()
    stripped = text.strip()
    if stripped.startswith("["):
        data = parse_json(stripped, "JSON covector list")
        if not isinstance(data, list) or not all(isinstance(s, str) for s in data):
            raise InvalidInput("JSON covector list must be an array of sign strings")
        strings = data
    else:
        strings = [line.strip() for line in stripped.splitlines() if line.strip()]
    return SignedFamily.from_strings(strings)


def _run_regions(args: argparse.Namespace) -> tuple[str, object]:
    arr = _load_arrangement(args.input)
    strings = [r.to_string() for r in arr.regions()]
    return "\n".join(strings), strings


def _run_faces(args: argparse.Namespace) -> tuple[str, object]:
    arr = _load_arrangement(args.input)
    strings = [f.to_string() for f in arr.faces()]
    return "\n".join(strings), strings


def _run_poset(args: argparse.Namespace) -> tuple[str, object]:
    arr = _load_arrangement(args.input)
    poset = arr.poset()
    names = arr.names
    rows = []
    payload = []
    for flat, mu in zip(poset.flats, poset.mobius):
        defset = sorted(flat.defining_set)
        label = "{" + ",".join(names[i] for i in defset) + "}"
        rows.append(f"{flat.index:3d}  dim {flat.dim}  mu {mu:3d}  {label}")
        payload.append(
            {
                "id": flat.index,
                "defining_set": defset,
                "hyperplanes": [names[i] for i in defset],
                "dim": flat.dim,
                "mobius": mu,
            }
        )
    return "\n".join(rows), {"flats": payload}


def _run_charpoly(args: argparse.Namespace) -> tuple[str, object]:
    arr = _load_arrangement(args.input)
    coeffs = arr.charpoly()
    text = charpoly_string(coeffs)
    return text, {"coefficients": list(coeffs), "text": text}


def _run_matrix(args: argparse.Namespace) -> tuple[str, object]:
    arr = _load_arrangement(args.input)
    matrix = build_varchenko(arr)
    return matrix.to_text(), matrix.to_json_dict()


def _run_det(args: argparse.Namespace) -> tuple[str, object]:
    method = args.method
    if args.from_json:
        if method != "bruteforce":
            raise InvalidInput(
                "--from-json provides only a matrix; use --method bruteforce"
            )
        matrix = LabeledMatrix.from_json(args.input.read_text())
        det = det_bruteforce(matrix)
        text = det.to_string()
        return text, {"method": "bruteforce", "determinant": text}
    arr = _load_arrangement(args.input)
    if method == "formula":
        factored = det_formula(arr)
        return str(factored), {"method": "formula", "determinant": str(factored)}
    if method == "bruteforce":
        det = det_bruteforce(build_varchenko(arr))
        text = det.to_string()
        return text, {"method": "bruteforce", "determinant": text}
    factored = det_formula(arr)
    brute = det_bruteforce(build_varchenko(arr))
    if brute != factored.expand():
        raise VarchenkoError(
            "determinant mismatch between the formula and the brute-force oracle"
        )
    text = f"formula: {factored}\nbruteforce: {factored}"
    payload = {
        "method": "both",
        "formula": str(factored),
        "bruteforce": str(factored),
        "equal": True,
    }
    return text, payload


def _run_check(args: argparse.Namespace) -> tuple[str, object]:
    arr = _load_arrangement(args.input)
    witness = arr.semigeneral_witness()
    if witness is None:
        return "semigeneral", {"semigeneral": True, "witness": None}
    names = sorted(arr.names[i] for i in witness.defining_set)
    expected = arr.dim - len(witness.defining_set)
    text = str(NotSemigeneral(names, witness.dim, expected))
    payload = {
        "semigeneral": False,
        "witness": {
            "hyperplanes": names,
            "dim": witness.dim,
            "expected_dim": expected,
        },
    }
    return text, payload


def _checks_line(checks: dict) -> str:
    return "checks: pvq_equals_d={pvq_equals_d} det_p={det_p} det_q={det_q}".format(**checks)


def _run_diagonalize(args: argparse.Namespace) -> tuple[str, object]:
    arr = _load_arrangement(args.input)
    cert = diagonalize(arr)
    if args.certificate:
        Path(args.certificate).write_text(cert.to_json() + "\n")
    lines = ["ordering: " + " ".join(str(i) for i in cert.ordering)]
    for k, (flat, entry) in enumerate(zip(cert.step_flats, cert.diagonal)):
        lines.append(f"step {k}: flat {flat}  {entry}")
    lines.append(_checks_line(cert.checks))
    return "\n".join(lines), cert.to_json_dict()


def _run_verify(args: argparse.Namespace) -> tuple[str, object]:
    arr = _load_arrangement(args.input)
    if not args.certificate.is_file():
        raise InvalidInput(f"certificate file not found: {args.certificate}")
    checks = verify_certificate(arr, args.certificate.read_text())
    steps = len(arr.regions())
    text = f"verified: {steps} steps\n" + _checks_line(checks)
    return text, {"verified": True, "steps": steps, "checks": checks}


def _run_snf_q(args: argparse.Namespace) -> tuple[str, object]:
    arr = _load_arrangement(args.input)
    entries = snf_q(arr)
    lines = []
    for exponent, multiplicity in entries:
        base = "1" if exponent == 0 else f"(1-q^2)^{exponent}" if exponent > 1 else "(1-q^2)"
        lines.append(f"{base} x{multiplicity}")
    payload = {
        "entries": [
            {"exponent": e, "multiplicity": m} for e, m in entries
        ]
    }
    return "\n".join(lines), payload


def _run_obstruct(args: argparse.Namespace) -> tuple[str, object]:
    arr = _load_arrangement(args.input)
    report = obstruction_report(arr)
    lines = []
    for check in report.checks:
        status = "consistent" if check.consistent else "INCONSISTENT"
        lines.append(f"{check.name}: {status}")
    lines.append(
        "all checks consistent" if report.all_consistent else "SOME CHECKS FAILED"
    )
    return "\n".join(lines), report.to_json_dict()


def _run_axioms(args: argparse.Namespace) -> tuple[str, object]:
    family = _load_covector_family(args.input)
    report = check_vector_axioms(family)
    closure_witness = check_composition_closure(family)
    lines = []
    payload: dict = {}
    for axiom, ok, witness in (
        ("axiom_a", report.axiom_a, report.witness_a),
        ("axiom_b", report.axiom_b, report.witness_b),
    ):
        lines.append(f"{axiom}: {'pass' if ok else 'fail'}")
        payload[axiom] = ok
        payload[f"witness_{axiom[-1]}"] = witness.to_string() if witness else None
        if witness:
            lines[-1] += f" (witness {witness.to_string()})"
    lines.append(f"axiom_c: {'pass' if report.axiom_c else 'fail'}")
    payload["axiom_c"] = report.axiom_c
    if report.witness_c:
        x, y, e, f = report.witness_c
        lines[-1] += f" (witness X={x.to_string()} Y={y.to_string()} e={e} f={f})"
        payload["witness_c"] = {
            "X": x.to_string(),
            "Y": y.to_string(),
            "e": e,
            "f": f,
        }
    else:
        payload["witness_c"] = None
    closed = closure_witness is None
    lines.append(f"composition_closure: {'pass' if closed else 'fail'}")
    payload["composition_closure"] = closed
    if closure_witness:
        x, y = closure_witness
        lines[-1] += f" (witness {x.to_string()} o {y.to_string()})"
        payload["witness_composition"] = [x.to_string(), y.to_string()]
    else:
        payload["witness_composition"] = None
    return "\n".join(lines), payload


_HANDLERS = {
    "regions": _run_regions,
    "faces": _run_faces,
    "poset": _run_poset,
    "charpoly": _run_charpoly,
    "matrix": _run_matrix,
    "det": _run_det,
    "check": _run_check,
    "diagonalize": _run_diagonalize,
    "verify": _run_verify,
    "snf-q": _run_snf_q,
    "obstruct": _run_obstruct,
    "axioms": _run_axioms,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if not args.input.is_file():
            raise InvalidInput(f"input file not found: {args.input}")
        text, payload = _HANDLERS[args.subcommand](args)
        out = json.dumps(payload, indent=2) if args.format == "json" else text
        if args.output:
            Path(args.output).write_text(out + "\n")
        else:
            sys.stdout.write(out + "\n")
        return 0
    except (InvalidInput, InvalidArrangement, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotSemigeneral, SemigeneralInput, Unsupported, OrderingStuck) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except VarchenkoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
