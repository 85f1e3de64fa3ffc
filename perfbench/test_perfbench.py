"""Self-tests of the benchmark harness; they run only the small rung."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _small(workload):
    return [inp for inp in inputs.build_inputs(workload, 1) if inp.small]


@pytest.fixture
def quick_run(monkeypatch, tmp_path):
    """run.main on fixtures with at most 7 regions, with the least repeats."""
    cheap = {w: [i for i in _small(w) if i.regions <= 7] for w in inputs.WORKLOADS}
    monkeypatch.setattr(inputs, "build_inputs", lambda w, s: cheap[w])
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "SETUP_MIN_S", 0)
    monkeypatch.setattr(run, "SMALL_PASSES_MIN", 1)
    return cheap


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_small_rung_passes_its_checks(workload):
    result = workloads.run_pass(workload, _small(workload), spans.NullTracer())
    assert result.failures == []


@pytest.mark.parametrize(
    "workload, field, value",
    [
        ("semigeneral", "regions", 999),
        ("oracle", "regions", 999),
        ("degenerate", "deficient", (0, 1)),
    ],
)
def test_corrupted_expected_value_counts_as_failure(workload, field, value, quick_run, capsys):
    data = quick_run[workload]
    data[0] = dataclasses.replace(data[0], **{field: value})
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ops_ok_frac"]["value"] < 1


def test_metric_names_match_benchmark_json(quick_run, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "degenerate", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
        assert run.main(argv) == 0
        metrics = json.loads(capsys.readouterr().out.splitlines()[-1])["metrics"]
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            name: m["unit"] for name, m in metrics.items()
        }
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_same_seed_same_inputs_and_seeds_keep_region_counts():
    for workload in inputs.WORKLOADS:
        a = inputs.build_inputs(workload, 7)
        assert inputs.digest(a) == inputs.digest(inputs.build_inputs(workload, 7))
        b = inputs.build_inputs(workload, 8)
        assert inputs.digest(a) != inputs.digest(b)
        assert [i.regions for i in a] == [i.regions for i in b]


def test_input_over_a_cap_fails_loudly(monkeypatch, tmp_path, capsys):
    generated = dict(inputs._GENERATED, oracle=(("generic", 2, 5),))
    monkeypatch.setattr(inputs, "_GENERATED", generated)
    with pytest.raises(inputs.InputTooLarge, match="oracle cap"):
        inputs.build_inputs("oracle", 1)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    argv = ["--workload", "oracle", "--seed", "1", "--seconds", "0"]
    assert run.main(argv) == 3
    assert capsys.readouterr().out == ""


def test_self_time_subtracts_child_spans():
    s = [
        spans.Span("op.a", 0.0, 10.0, None, 0),
        spans.Span("geometry.regions", 1.0, 4.0, 0, 0),
        spans.Span("varmatrix.det_formula", 4.0, 9.0, 0, 0),
        spans.Span("polyring.expand", 5.0, 7.0, 2, 0),
    ]
    assert spans.self_time_by_layer(s) == {
        "harness": 2.0,
        "geometry": 3.0,
        "varmatrix": 3.0,
        "polyring": 2.0,
    }

