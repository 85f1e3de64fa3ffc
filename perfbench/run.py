"""Benchmark for the varchenko library: one workload per process.

    python3 perfbench/run.py --workload semigeneral --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is imported from ./src.  Each
workload is a closed loop with one client: this single process runs the
workload's seeded inputs one op after another, with no other thread.

  semigeneral  `diagonalize --certificate` on semigeneral fixtures and on
               lines n = 8, 10, 12 and planes n = 5, 6 in general position
  oracle       `det --method both` at or below the oracle's 12 regions
  degenerate   `obstruct --format json` on arrangements with a deficient flat

With --trace 0 the run measures, with tracing off, full passes over the
inputs and then passes over the small rung (the shipped fixtures) until
--seconds have gone, and reports the end-to-end metrics.  With --trace 1
it alternates untraced and traced passes and reports the per-layer
metrics taken from spans around each public call.  Timings are seconds at
a reference host speed (see speed.py).  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.  The full record
(inputs digest, raw wall-clock times, failures, spans, environment) goes
to perfbench/results/.

Exit codes: 0 ran (even if an op failed: see "correct"), 2 the library
sources are missing, 3 a generated input exceeds a size cap.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import inputs
import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
# Set-up is repeated at least this often and for at least this long; the
# median is reported.
SETUP_REPEATS = 5
SETUP_MIN_S = 0.5
SMALL_PASSES_MIN = 5

# Span name -> per-layer timing metric (name + "_s").
LAYER_SPANS = (
    "geometry.from_json",
    "geometry.regions",
    "geometry.faces",
    "geometry.poset",
    "varmatrix.build_varchenko",
    "varmatrix.det_formula",
    "varmatrix.det_bruteforce",
    "polyring.expand",
    "diagonalize.ordering",
    "diagonalize.diagonalize",
    "diagonalize.expected_diagonal",
    "diagonalize.cert_to_json",
    "matinvariants.obstruction_report",
    "matinvariants.report_to_json",
)
PROBE_SPANS = (
    "matinvariants.gcd_minors",
    "matinvariants.int_rank",
    "matinvariants.integer_snf",
)
LAYER_COUNTS = (
    "geometry.regions_n",
    "geometry.faces_n",
    "geometry.flats_n",
    "varmatrix.det_terms_n",
    "diagonalize.cert_json_bytes",
    "diagonalize.cert_nonzero_entries",
)
SHARE_LAYERS = (
    "geometry",
    "varmatrix",
    "polyring",
    "diagonalize",
    "matinvariants",
    "harness",
)


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _until(deadline: float, run, at_least: int = 1) -> list:
    """Call `run` at least `at_least` times, and again while another call
    of the same length would end before `deadline`."""
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(run())
        if len(results) >= at_least and 2 * time.perf_counter() - t0 > deadline:
            return results


def _seconds(p) -> float:
    return p.end - p.start


def _end_to_end(setup, full, rung, large, scaled) -> tuple[dict, dict]:
    metrics = {
        "pass_s": statistics.median(scaled(p.start, p.end) for p in full),
        "large_op_s": statistics.median(scaled(*p.ops[large]) for p in full),
        "small_ops_s": statistics.median(scaled(p.start, p.end) for p in rung),
        "setup_s": statistics.median(scaled(a, b) for a, b in setup),
    }
    record = {
        "raw_setup_s": [b - a for a, b in setup],
        "raw_full_passes": [{name: b - a for name, (a, b) in p.ops.items()} for p in full],
        "raw_small_passes_s": [_seconds(p) for p in rung],
    }
    return {name: _metric(v, "s") for name, v in metrics.items()}, record


def _per_layer(rounds, probe_tracer, scaled) -> tuple[dict, dict]:
    """Rounds are (untraced pass, traced pass, its tracer, its counts)."""
    metrics = {}
    factors = [scaled(r[1].start, r[1].end) / _seconds(r[1]) for r in rounds]
    totals = [spans.totals_by_name(r[2].spans) for r in rounds]
    for name in LAYER_SPANS:
        metrics[f"{name}_s"] = _metric(
            statistics.median(t.get(name, 0.0) * f for t, f in zip(totals, factors)), "s"
        )
    for name in LAYER_COUNTS:
        metrics[name] = _metric(rounds[0][3].get(name, 0), "count")
    self_times = [spans.self_time_by_layer(r[2].spans) for r in rounds]
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.share"] = _metric(
            statistics.median(
                st.get(layer, 0.0) / _seconds(r[1]) for st, r in zip(self_times, rounds)
            ),
            "ratio",
        )
    probe_totals: Counter = Counter()
    for s in probe_tracer.spans:
        probe_totals[s.name] += scaled(s.start, s.end)
    for name in PROBE_SPANS:
        metrics[f"{name}_s"] = _metric(probe_totals.get(name, 0.0), "s")
    untraced = statistics.median(scaled(r[0].start, r[0].end) for r in rounds)
    traced = statistics.median(scaled(r[1].start, r[1].end) for r in rounds)
    metrics["trace.overhead_frac"] = _metric(traced / untraced - 1, "ratio")
    record = {
        "raw_untraced_pass_s": [_seconds(r[0]) for r in rounds],
        "raw_traced_pass_s": [_seconds(r[1]) for r in rounds],
        "raw_self_time_s": self_times,
        "spans": [spans.to_records(r[2].spans) for r in rounds],
        "probe_spans": spans.to_records(probe_tracer.spans),
    }
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "varchenko" / "__init__.py").is_file():
        print(f"error: library sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    attempted = 0
    failures: list[str] = []
    null = spans.NullTracer()

    def tally(batch, tracer=null, counts=None):
        """One pass over `batch`, with its ops and failures counted."""
        nonlocal attempted
        gc.collect()  # each pass starts without an earlier pass's garbage
        result = workloads.run_pass(args.workload, batch, tracer, counts)
        attempted += len(batch)
        failures.extend(result.failures)
        return result

    with speed.SpeedSampler() as sampler:
        setup: list[tuple[float, float]] = []
        while len(setup) < SETUP_REPEATS or sum(b - a for a, b in setup) < SETUP_MIN_S:
            t0 = time.perf_counter()
            try:
                data = inputs.build_inputs(args.workload, args.seed)
            except inputs.InputTooLarge as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 3
            digest = inputs.digest(data)
            setup.append((t0, time.perf_counter()))
        small = [inp for inp in data if inp.small]
        large = max(data, key=lambda inp: inp.regions).name

        tally(small)  # first calls pay for lazy imports and warm-up
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            rounds = []

            def one_round():
                untraced = tally(data)
                tracer, counts = spans.Tracer(), Counter()
                rounds.append((untraced, tally(data, tracer, counts), tracer, counts))

            _until(deadline, one_round)
            probe_tracer = spans.Tracer()
            if args.workload == "degenerate":
                for inp in data:
                    workloads.probe_matinvariants(inp, probe_tracer)
        else:
            full = _until(deadline, lambda: tally(data))
            rung = _until(deadline, lambda: tally(small), SMALL_PASSES_MIN)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        metrics, record = _per_layer(rounds, probe_tracer, sampler.scaled)
    else:
        metrics, record = _end_to_end(setup, full, rung, large, sampler.scaled)
        metrics["ops_ok_frac"] = _metric(1 - len(failures) / attempted, "ratio")
        metrics["peak_rss_mb"] = _metric(peak_mb, "MB")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    environment = _environment()
    full_record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "inputs_sha256": digest,
        "inputs": [
            {"name": i.name, "hyperplanes": i.n, "regions": i.regions, "small": i.small}
            for i in data
        ],
        "large_op": large,
        "speed_samples": len(sampler.samples),
        "speed_kernel_median_s": (
            statistics.median(sampler.durations) if sampler.samples else None
        ),
        "failures": failures,
        "result": result,
        **record,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full_record, indent=1) + "\n")
    print(
        f"workload {args.workload} seed {args.seed}: inputs sha256 {digest}, "
        f"python {environment['python']}, git {environment['git_sha']}, "
        f"nproc {environment['nproc']}, record {os.path.relpath(out, ROOT)}"
    )
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
