#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for surfalg.

Three workloads, each a closed loop of one caller that waits for its result
(one repetition at a time, each in a fresh single-threaded interpreter):

  shipped-g3k4  ``surfalg --genus 3 --max-degree 4``, all nine suites, the CLI
                default and a golden configuration.  Most of its time is
                thousands of small dense HNFs (random-summand-roundtrips) and
                lambda3_action calls.
  graded-g2k6   suites lie-center, enveloping and nilpotent at g=2, K=6, a rung
                of the scaling ladder.  Most of its time is a few large SNFs
                inside surface.build, the opposite use of the same layer.
  magnus-g2k6   ``nilpotent.center_of_quotient(2, 6)`` and
                ``graded_rank_certificate(2, k)`` for k = 1..6, unreachable
                through the CLI.  Most of its time is kernel.mul_reduce.

BENCHMARK.json lists the first two only.  magnus-g2k6 is a single 30 s
repetition, so a run of the length the others use holds one or two samples of
it, and on a shared machine they are too unsteady to gate a change on; it runs
with ``--workload magnus-g2k6`` and in ``--all``.

Usage, from the root of a source checkout (nothing needs to be installed):

  python3 surfbench/run.py --workload shipped-g3k4 --seed 7 --seconds 60 --trace 0
  python3 surfbench/run.py --all --seed 20240 --out results.json
  python3 surfbench/run.py --compare before.json after.json

``--workload`` measures repetitions for ``--seconds`` and prints, as its last
line, one JSON object with the end-to-end metrics (``--trace 0``) or, from one
untraced and one traced repetition, the per-layer metrics (``--trace 1``).
``--all`` runs every workload both ways, prints every metric with its unit
and can write the whole result set, provenance included, to a file.
``--compare`` sets two such files side by side and refuses when their rewrite
kernel implementations differ.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
GOLDEN = ROOT / "tests" / "golden" / "report_g3_k4.json"
GOLDEN_SEED = 20240  # the seed the golden report was written at
G2_RANKS = [4, 5, 16, 45, 144, 440]  # graded ranks of the genus-2 quotient, degrees 1..6

# Wall budget of one repetition, about four times its time on a 2-core box.
# A repetition over budget is killed and counted as failed.
BUDGET_S = {"shipped-g3k4": 45.0, "graded-g2k6": 60.0, "magnus-g2k6": 120.0}
RUN_DEADLINE_S = 170.0  # one --workload run ends within 180 s whatever the program does
SETUP_PROBES = 7  # extra import-only children per run, for a steady setup_s


# -- children -----------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # fixed string hashing, so set and dict orders, and so call counts,
        # repeat from run to run
        PYTHONHASHSEED="0",
    )
    return env


def _spawn(spec: dict, timeout: float) -> tuple[dict | None, str | None]:
    """Run child.py once; return (result, None) or (None, reason it failed)."""
    argv = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            argv, env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"over its {timeout:.0f} s budget"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"child exited {proc.returncode}: {tail[0]}"
    result = json.loads(proc.stdout.splitlines()[-1])
    # CLOCK_MONOTONIC is shared by all processes, so this spans interpreter
    # start-up and ``import surfalg`` in the child
    result["setup_s"] = result["ready"] - start
    return result, None


def _normalized(report: dict) -> dict:
    """Mask the fields that vary between identical runs, as the acceptance tests do."""
    out = json.loads(json.dumps(report))
    out["version"] = None
    for check in out["checks"]:
        check["runtime_ms"] = None
    return out


def verify(workload: str, seed: int, result: dict) -> str | None:
    """Why a repetition's output is wrong, or None when it is right."""
    output = result["output"]
    if workload == "magnus-g2k6":
        if not output["center_passed"]:
            return "center_of_quotient(2, 6) did not pass"
        if output["ranks"] != G2_RANKS:
            return f"certificate ranks {output['ranks']} != {G2_RANKS}"
        return None
    # A skipped check is a failure too, so a lowered dimension cap cannot
    # read as a speed-up.
    not_passed = [c["name"] for c in output["checks"] if c["status"] != "pass"]
    if workload == "shipped-g3k4" and seed == GOLDEN_SEED:
        if _normalized(output) != _normalized(json.loads(GOLDEN.read_text())):
            return "report differs from tests/golden/report_g3_k4.json"
    elif not_passed:
        return f"checks not passed: {', '.join(not_passed)}"
    if workload == "graded-g2k6":
        ranks = next(c["actual"] for c in output["checks"] if c["name"] == "surface-ranks")
        if ranks != G2_RANKS:
            return f"surface ranks {ranks} != {G2_RANKS}"
    if result["rc"] != 0:
        return f"surfalg exited {result['rc']}"
    return None


def repetition(workload: str, seed: int, trace: bool, timeout: float) -> tuple[dict | None, str | None]:
    result, error = _spawn({"workload": workload, "seed": seed, "trace": trace}, timeout)
    if result is not None:
        error = verify(workload, seed, result)
    if error:
        print(f"{workload} seed {seed}: repetition failed: {error}", file=sys.stderr)
    return result, error


# -- runs ---------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced repetitions for ``seconds``; medians of the end-to-end metrics."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []
    for _ in range(SETUP_PROBES):
        probe, _ = _spawn({"probe": True}, timeout=30.0)
        if probe is not None:
            setups.append(probe["setup_s"])
    results, attempts, attempted, failed = [], [], 0, 0
    start = time.monotonic()
    while True:
        began = time.monotonic()
        result, error = repetition(
            workload, seed, False, min(BUDGET_S[workload], deadline - began)
        )
        attempts.append(time.monotonic() - began)
        attempted += 1
        failed += error is not None
        if result is not None:
            results.append(result)
            setups.append(result["setup_s"])
        # Start another repetition only if it should end within the run, so
        # that a run lasts at most ``seconds`` and every run of a workload
        # holds about as many repetitions.
        end = time.monotonic() + statistics.median(attempts)
        if end > start + seconds or end > deadline:
            break
    if not results:
        # every repetition crashed or ran over budget: the run is reported as
        # failed, with the time the attempts took in place of wall and CPU time
        results = [{"wall_s": elapsed, "cpu_s": elapsed, "peak_rss_mb": 0.0} for elapsed in attempts]
    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "wall_s": statistics.median(r["wall_s"] for r in results),
            "cpu_s": statistics.median(r["cpu_s"] for r in results),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
            "pass_ratio": (attempted - failed) / attempted,
        },
        "wall_s_each": [r["wall_s"] for r in results],
        "about": results[0],
    }


def traced(workload: str, seed: int) -> dict:
    """One untraced and one traced repetition; per-layer metrics and overhead."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    plain, plain_error = repetition(workload, seed, False, BUDGET_S[workload])
    remaining = deadline - time.monotonic()
    traced_run, traced_error = repetition(workload, seed, True, min(BUDGET_S[workload], remaining))
    failed = (plain_error is not None) + (traced_error is not None)
    layers, calls = {}, {}
    if traced_run is not None:
        layers, calls = dict(traced_run["layers"]), traced_run["calls"]
        if plain is not None:
            layers["trace_overhead_s"] = traced_run["wall_s"] - plain["wall_s"]
    return {
        "attempted": 2,
        "failed": failed,
        "per_layer": layers,
        "calls": calls,
        "about": traced_run or plain or {},
    }


def top_self_layer(per_layer: dict) -> str:
    selfs = {k.split(".", 1)[1]: v for k, v in per_layer.items() if k.startswith("self_s.")}
    return max(selfs, key=selfs.get)


# -- provenance and output ----------------------------------------------------


def provenance(seed: int, about: dict) -> dict:
    """Where a result came from; ``about`` is one child's report of itself."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "surfalg").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():  # an exported checkout has no revision to report
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "python": about.get("python"),
        "numpy": about.get("numpy"),
        "kernel": about.get("kernel"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _metric_block(values: dict, declared: list[dict]) -> dict:
    # a layer the workload never enters reads 0
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}


def _prepare() -> dict:
    if not (SRC / "surfalg" / "__init__.py").is_file():
        sys.exit(f"no surfalg sources under {SRC}; run from a source checkout")
    # byte-compile once, so that no timed child pays for it
    compileall.compile_dir(str(SRC / "surfalg"), quiet=1)
    compileall.compile_file(str(HERE / "tracer.py"), quiet=1)
    return json.loads(SPEC.read_text())


def run_one(args, spec: dict) -> int:
    if args.trace:
        run = traced(args.workload, args.seed)
        metrics = _metric_block(run["per_layer"], spec["per_layer"])
    else:
        run = measure(args.workload, args.seed, args.seconds)
        metrics = _metric_block(run["end_to_end"], spec["end_to_end"])
    detail = {"provenance": provenance(args.seed, run["about"]), "workload": args.workload}
    if not args.trace:
        detail["wall_s_each"] = run["wall_s_each"]
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args, spec: dict) -> int:
    results = {}
    for workload in BUDGET_S:
        plain = measure(workload, args.seed, args.seconds)
        layered = traced(workload, args.seed)
        attempted = plain["attempted"] + layered["attempted"]
        failed = plain["failed"] + layered["failed"]
        results[workload] = {
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "end_to_end": _metric_block(plain["end_to_end"], spec["end_to_end"]),
            "per_layer": _metric_block(layered["per_layer"], spec["per_layer"]),
            "top_self_layer": top_self_layer(layered["per_layer"]) if layered["calls"] else None,
            "calls": layered["calls"],
        }
        print(f"== {workload}  seed {args.seed}  attempted {attempted}  failed {failed}"
              f"  fail_ratio {failed / attempted:g}  top self time: {results[workload]['top_self_layer']}")
        for block in ("end_to_end", "per_layer"):
            for name, metric in results[workload][block].items():
                print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}")
    out = {"provenance": provenance(args.seed, plain["about"]), "workloads": results}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 1 if any(r["failed"] for r in results.values()) else 0


def compare(path_a: str, path_b: str, spec: dict) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    kernels = a["provenance"]["kernel"], b["provenance"]["kernel"]
    if kernels[0] != kernels[1]:
        print(f"refusing to compare: rewrite kernels differ ({kernels[0]} vs {kernels[1]})",
              file=sys.stderr)
        return 2
    print(f"seeds {a['provenance']['seed']} vs {b['provenance']['seed']}, kernel {kernels[0]}")
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for name, (bound, better) in bounds.items():
            va = a["workloads"][workload]["end_to_end"][name]["value"]
            vb = b["workloads"][workload]["end_to_end"][name]["value"]
            change = (vb - va) / va
            worse = change > bound if better == "lower" else -change > bound
            print(f"{workload:14s} {name:12s} {va:12.6g} {vb:12.6g} {change:+8.1%}"
                  f"{'  worse than its bound' if worse else ''}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(BUDGET_S))
    mode.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    mode.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all, write the result set here")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, json.loads(SPEC.read_text()))
    spec = _prepare()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run_all(args, spec) if args.all else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
