"""Benchmark entry point.

    python3 bench/run.py --workload evaluate --seed 1 --seconds 1 --trace 0

Runs one workload from the root of a checkout: generate, train, evaluate
and serve, with every output checked. `--trace 0` prints the end-to-end
metrics; `--trace 1` wraps the package's public functions and prints the
per-layer metrics instead. The last line of standard output is one JSON
object; the full record (environment, seeds, per-stage operations, every
check, and for a traced run the self-time profile) goes to
`bench/out/<workload>-seed<n>[-trace]/record.json`.
"""

import argparse
import json
import os
import sys

# BLAS is pinned to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="serving repeats whole passes over its searches until this long has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cellsearch", "cli.py")):
        print(f"no cellsearch sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from harness import Run
    from workloads import WORKLOADS

    suffix = "-trace" if args.trace else ""
    out_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}{suffix}")
    record = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), out_dir).execute()

    for check in record["checks"]:
        print(f"check {check['stage']}/{check['name']}: {'ok' if check['ok'] else 'FAIL'} ({check['detail']})")
    for stage, ops in record["ops"].items():
        print(f"ops {stage}: attempted {ops['attempted']} failed {ops['failed']}")
    if record.get("balance"):
        print("balance " + " ".join(f"{k} {v:.4f}" for k, v in record["balance"].items()))
        for row in record["profile"][:25]:
            print(f"self {row['name']:<40} calls {row['calls']:>7} self_s {row['self_s']:9.4f} "
                  f"share {row['self_share']:.4f}")
    for name, m in record.get("metrics", {}).items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"record {os.path.relpath(os.path.join(out_dir, 'record.json'), ROOT)}")
    if record["error"]:
        print(f"error: {record['error']}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
