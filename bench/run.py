"""Benchmark of hdexplain: one workload per process, closed loop, checked outputs.

    python3 bench/run.py --workload moons-eval --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (which
also writes the spans to ``bench/out/trace-<workload>-seed<n>.json``).
``--workload all`` runs each workload in its own process, one after another.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One BLAS/OpenMP thread, fixed before numpy is imported (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("moons-eval", "image-query", "image-cli")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a child process; their result lines, one per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(json.dumps({"workload": name, "exit": proc.returncode,
                          "result": json.loads(lines[-1]) if proc.returncode == 0 and lines else None}))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hdexplain" / "__init__.py").is_file():
        print(f"error: no hdexplain sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))

    import selftest
    from workloads import run_workload

    selftest.run()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), BENCH_DIR / "out")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
