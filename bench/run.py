"""Benchmark of risloc: line sweep, AOI sweep and cold `risloc single`.

Usage, from the root of a checkout:

    python3 bench/run.py --blas-threads 1 --aoi-threads 2 \\
        --workload {line,aoi,single} --seed N --seconds S --trace {0,1}

Prints a summary on stderr and, as the last line of stdout, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. Exits 2 when risloc cannot be imported from
the checkout's ``src``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("line", "aoi", "single"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS threads in this process and CLI children")
    p.add_argument("--aoi-threads", type=int, default=2,
                   help="harness pool threads of the aoi workload")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    # Before numpy is first imported, here and in every CLI child.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import risloc from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = workloads.Run(args, T0)
    threads = workloads.WORKLOADS[args.workload](run)
    if args.trace:
        values, listed = workloads.per_layer(run, threads), spec["per_layer"]
    else:
        values, listed = workloads.end_to_end(run), spec["end_to_end"]

    failed = [t for t in run.trials if t.failures]
    for t in failed[:5]:
        print(f"FAILED {t.variant} at {t.truth_p}: {t.failures}",
              file=sys.stderr)
    for problem in run.structural:
        print(f"WRONG {problem}", file=sys.stderr)
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"WRONG metrics not produced: {missing}", file=sys.stderr)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in listed}
    correct = (not run.structural and not missing
               and all(math.isfinite(v["value"]) for v in metrics.values()))
    for name, v in metrics.items():
        print(f"{name:40s} {v['value']:.6g} {v['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(run.trials),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
