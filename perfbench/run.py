#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload closedloop-wifi --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout (the package is imported from ``src/``).
``--workload all`` runs every workload in turn. With ``--trace 0`` the
last line of standard output is a JSON object holding every end-to-end
metric; with ``--trace 1`` it holds the per-layer metrics of a traced
run instead, and a Chrome trace is written under ``perfbench/out/``.
The exit code is 0 only when every output check passed. See
``perfbench/README.md`` for the metrics and the checks.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: one BLAS/OpenMP thread, a fixed hash seed
# (set-iteration order), and bytecode caching on. PYTHONHASHSEED only
# takes effect at interpreter start, so the process re-executes itself
# once; exec replaces it, so no child process is left behind.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _pin_environment() -> None:
    stale = any(os.environ.get(k) != v for k, v in PINNED_ENV.items())
    if stale or "PYTHONDONTWRITEBYTECODE" in os.environ:
        env = dict(os.environ)
        env.update(PINNED_ENV)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


if __name__ == "__main__":
    _pin_environment()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import bench  # noqa: E402  (needs the paths above)

    names = list(bench.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in bench.WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(bench.WORKLOADS)} or all", file=sys.stderr)
        return 2
    status = 0
    for name in names:
        status = max(status, bench.run(
            bench.WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
            out_dir=os.path.join(HERE, "out"),
        ))
    return status


if __name__ == "__main__":
    sys.exit(_main())
