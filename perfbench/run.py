#!/usr/bin/env python3
"""wordlm end-to-end benchmark: one workload per call, in a fresh pinned process.

    python3 perfbench/run.py --workload train-large-vocab --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it imports wordlm from the checkout's
``src/``. The worker process gets ``WORDLM_KERNELS=numpy`` and at most
``MAX_THREADS`` BLAS/OpenMP threads (never more than the CPUs this process may
use), so a silent backend fallback or a thread change cannot creep into the
numbers; the worker prints the backend, numpy, BLAS, CPU and thread counts.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics and writes the spans to ``.perfbench/trace-<workload>-seed<n>.json``.
The last stdout line is the JSON result. ``--tiny`` runs the same pipeline at
toy shapes (used by ``perfbench/test_smoke.py``).
"""

import argparse
import os
import subprocess
import sys

from workloads import WORKLOADS

MAX_THREADS = 1
TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="toy shapes, for the smoke test")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wordlm", "__init__.py")):
        print(f"perfbench: no wordlm sources under {src}", file=sys.stderr)
        return 2
    threads = str(min(MAX_THREADS, len(os.sched_getaffinity(0))))
    env = dict(
        os.environ,
        WORDLM_KERNELS="numpy",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONPATH=src,
        PYTHONHASHSEED="0",
    )
    out = os.path.join(ROOT, ".perfbench")
    os.makedirs(out, exist_ok=True)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", out,
    ] + (["--tiny"] if args.tiny else [])
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
