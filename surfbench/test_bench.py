"""Tests of the benchmark itself.

They sit outside the package's test paths, so the tier-1 run does not
collect them.  Run them explicitly from the repository root:

    python3 -m pytest surfbench -q

The tracing tests run every workload traced twice, in fresh processes, so
they take a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SEED = 20240

# The layers each workload drives, so their call counts must be non-zero.
DRIVEN_LAYERS = {
    "shipped-g3k4": LAYERS,
    "graded-g2k6": ("cli", "surface", "freelie", "intlinalg", "kernel", "enveloping", "nilpotent"),
    "magnus-g2k6": ("intlinalg", "kernel", "nilpotent"),
}
# Per-layer counts named by the workload design, by the workload that drives them.
DRIVEN_COUNTS = {
    "shipped-g3k4": (
        "intlinalg.hnf.calls",
        "intlinalg.row_span_contains.calls",
        "intlinalg.intmatrix.constructed",
        "intlinalg.snf.calls",
        "symplectic.lambda3_action.calls",
        "symplectic.roundtrip.calls",
    ),
    "graded-g2k6": (
        "intlinalg.snf.calls",
        "intlinalg.sparse_echelon.calls",
        "freelie.bracket_words.calls",
        "kernel.mul_reduce.calls",
        "kernel.reduce_terms.calls",
    ),
    "magnus-g2k6": (
        "kernel.mul_reduce.calls",
        "nilpotent.expand.calls",
        "nilpotent.commutator.calls",
        "intlinalg.sparse_echelon.calls",
    ),
}


@pytest.fixture(scope="module", params=sorted(run.BUDGET_S))
def traced_pair(request):
    workload = request.param
    run._prepare()
    pair = []
    for _ in range(2):
        result, error = run.repetition(workload, SEED, True, run.BUDGET_S[workload])
        assert error is None, error
        pair.append(result)
    return workload, pair


def test_each_layer_is_counted_on_the_workload_that_drives_it(traced_pair):
    workload, (first, _) = traced_pair
    for layer in DRIVEN_LAYERS[workload]:
        counted = sum(n for key, n in first["calls"].items() if key.startswith(layer + "."))
        assert counted > 0, f"no {layer} call was seen on {workload}"
    for name in DRIVEN_COUNTS[workload]:
        assert first["layers"][name] > 0, f"{name} is 0 on {workload}"


def test_call_counts_repeat_exactly_at_one_seed(traced_pair):
    workload, (first, second) = traced_pair
    assert first["calls"] == second["calls"]
    counts = [name for name in first["layers"] if name.endswith(".calls")]
    assert [first["layers"][n] for n in counts] == [second["layers"][n] for n in counts]


def test_reported_metrics_are_the_declared_ones():
    spec = json.loads(run.SPEC.read_text())
    produced = set(Tracer().layer_metrics()) | {"trace_overhead_s"}
    assert produced == {m["name"] for m in spec["per_layer"]}
    assert {"setup_s", "wall_s", "cpu_s", "peak_rss_mb", "pass_ratio"} == {
        m["name"] for m in spec["end_to_end"]
    }
    assert {w["name"] for w in spec["workloads"]} <= set(run.BUDGET_S)


def _shipped_output(status="pass"):
    golden = json.loads(run.GOLDEN.read_text())
    golden["checks"][0]["status"] = status
    return {"output": golden, "rc": 0}


def test_correctness_gate_rejects_wrong_outputs():
    assert run.verify("shipped-g3k4", run.GOLDEN_SEED, _shipped_output()) is None
    assert run.verify("shipped-g3k4", 7, _shipped_output()) is None
    # a skipped check fails the gate at the golden seed and at any other
    assert run.verify("shipped-g3k4", run.GOLDEN_SEED, _shipped_output("skipped"))
    assert run.verify("shipped-g3k4", 7, _shipped_output("skipped"))
    assert run.verify("shipped-g3k4", 7, dict(_shipped_output(), rc=1))
    good = {"center_passed": True, "ranks": list(run.G2_RANKS)}
    assert run.verify("magnus-g2k6", 1, {"output": good, "rc": 0}) is None
    assert run.verify("magnus-g2k6", 1, {"output": dict(good, center_passed=False), "rc": 0})
    assert run.verify("magnus-g2k6", 1, {"output": dict(good, ranks=[4, 5, 16]), "rc": 0})


def test_compare_refuses_different_kernels(tmp_path):
    metrics = {"wall_s": {"value": 1.0, "unit": "s"}}
    for name, kernel in (("a.json", "pure"), ("b.json", "compiled")):
        (tmp_path / name).write_text(json.dumps({
            "provenance": {"kernel": kernel, "seed": SEED},
            "workloads": {"magnus-g2k6": {"end_to_end": metrics}},
        }))
    spec = {"end_to_end": [{"name": "wall_s", "bound": 0.1, "better": "lower"}]}
    assert run.compare(tmp_path / "a.json", tmp_path / "b.json", spec) == 2
    assert run.compare(tmp_path / "a.json", tmp_path / "a.json", spec) == 0


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "surfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "surfbench/run.py", "--workload", "magnus-g2k6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
