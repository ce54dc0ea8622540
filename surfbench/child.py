"""One repetition of a benchmark workload, in a fresh interpreter.

Spawned by run.py, one at a time, as ``python child.py '<json spec>'`` with
``src`` on PYTHONPATH.  A fresh process per repetition keeps the package's
process-wide caches (``group_ring_truncation``, ``_shared_algebra``,
``enveloping_algebra``) cold, as they are for a user's run.  The spec is
``{"probe": true}`` to time the import alone, or ``{"workload": name, "seed":
n, "trace": bool}``.  The last line of stdout is one JSON object.
"""

import time

import surfalg  # noqa: F401  -- set-up ends when this import is done

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cli(argv):
    from surfalg import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, json.loads(out.getvalue())


def _magnus():
    from surfalg import nilpotent

    center = nilpotent.center_of_quotient(2, 6)
    ranks = [nilpotent.graded_rank_certificate(2, k).rank for k in range(1, 7)]
    return 0, {"center_passed": center.passed, "ranks": ranks}


def run_workload(name, seed):
    if name == "shipped-g3k4":
        return _cli(["--genus", "3", "--max-degree", "4", "--seed", str(seed)])
    if name == "graded-g2k6":
        return _cli(
            ["--genus", "2", "--max-degree", "6", "--seed", str(seed),
             "--suite", "lie-center,enveloping,nilpotent"]
        )
    if name == "magnus-g2k6":
        return _magnus()  # library calls with no random input; the seed is unused
    raise ValueError(f"unknown workload {name!r}")


def main(spec):
    if spec.get("probe"):
        return {"ready": READY}
    import numpy
    from surfalg import _kernel

    result = {
        "ready": READY,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kernel": _kernel.IMPLEMENTATION,
    }
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    rc, output = run_workload(spec["workload"], spec["seed"])
    result["wall_s"] = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    result["rc"] = rc
    result["output"] = output
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["calls"] = tracer.all_calls()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
