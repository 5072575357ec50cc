#!/usr/bin/env python3
"""Benchmark of corrldp.

    python3 perfbench/run.py --workload {grid,population,order,cli-files}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; corrldp is imported from its ``src``.
One process does all the work: BLAS is pinned to one thread and no
process pool is started.  The run warms up, then repeats one round of the
workload round(S / nominal round seconds) times, so that every run does the
same work and lasts about S seconds on the reference host.  Every round
repeats the same inputs; the first round's outputs are checked, and later
rounds must reproduce them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (setup_s, peak_rss_mb, round_s).
With ``--trace 1`` the layer boundaries are instrumented, each other
workload also runs one round so that every per-layer metric is measured at
its home workload, the metrics are the per-layer ones, and the spans are
written to ``.perfbench_out/trace-<workload>-seed<N>.json``.
"""

import os
import time

_STARTED = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description="Benchmark of corrldp.")
    parser.add_argument("--workload", required=True, choices=list(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def fastest_round(rounds: list[dict]) -> float:
    """Seconds of one round with every step at its fastest over the rounds.

    The rounds repeat the same work step for step, so a step's fastest time
    is its cost with the least interference from other tenants of the host,
    and short steps find the host's quiet moments more often than whole
    rounds do.
    """
    return sum(min(r["steps"][step] for r in rounds) for step in rounds[0]["steps"])


def measure(args, workdir: Path) -> dict:
    from corrbench import layers
    from corrbench.tracing import NullTracer, Tracer
    from corrbench.workloads import BY_NAME, WORKLOADS

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        layers.instrument(tracer)
    try:
        workload = BY_NAME[args.workload](args.seed, tracer, workdir)
        with tracer.paused():
            workload.warm_up()
        setup_s = time.perf_counter() - _STARTED
        tracer.workload = workload.name
        rounds = [workload.run_round() for _ in range(workload.rounds_for(args.seconds))]
        with tracer.paused():
            workload.final_check()
        attempted = len(rounds) * workload.ops_per_round
        round_s = fastest_round(rounds)
        figures = {
            "round_times_s": [round(sum(r["steps"].values()), 4) for r in rounds],
            **workload.figures(rounds),
        }
        if not args.trace:
            return {
                "attempted": attempted,
                "figures": figures,
                "metrics": {
                    "setup_s": {"value": setup_s, "unit": "s"},
                    "peak_rss_mb": {
                        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB",
                    },
                    "round_s": {"value": round_s, "unit": "s"},
                },
            }
        for other in WORKLOADS:
            if other.name == workload.name:
                continue
            visitor = other(args.seed, tracer, workdir)
            with tracer.paused():
                visitor.warm_up()
            tracer.workload = visitor.name
            visitor.run_round()
            with tracer.paused():
                visitor.final_check()
            attempted += visitor.ops_per_round
    finally:
        if args.trace:
            tracer.restore()
    metrics = layers.per_layer_metrics(tracer)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_path, "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "round_s_traced": round_s,
                "figures": figures,
                "per_layer": metrics,
                "spans": [
                    {**s, "start": s["start"] - _STARTED, "end": s["end"] - _STARTED}
                    for s in tracer.spans
                ],
            },
            fh,
        )
    figures["trace"] = str(trace_path.relative_to(ROOT))
    return {"attempted": attempted, "figures": figures, "metrics": metrics}


def main(argv=None) -> int:
    if not (SRC / "corrldp" / "__init__.py").is_file():
        print(f"error: no corrldp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import corrldp
    from corrbench.checks import CheckError
    from corrbench.workloads import BY_NAME

    if Path(corrldp.__file__).resolve().parent != SRC / "corrldp":
        print(f"error: imported corrldp from {corrldp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv, BY_NAME)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        result = measure(args, workdir)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("figures " + json.dumps(result["figures"]))
    print(
        json.dumps(
            {"correct": True, "attempted": result["attempted"], "failed": 0, "metrics": result["metrics"]}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
