"""End-to-end benchmark of HOS-Miner across four regimes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 20 --trace 0

Workloads are listed in ``BENCHMARK.json`` and ``perfbench/README.md``.
With ``--trace 0`` the last line of standard output is one JSON object
holding every end-to-end metric; with ``--trace 1`` it holds the
per-layer metrics of a traced run instead. Earlier lines record the
environment, sample counts and, when tracing, a per-layer breakdown.
The exit code is 0 only when the run produced a result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

# Pin the environment before numpy is imported: one BLAS/OpenMP thread
# per process, and no ambient knob that could turn an in-process
# workload into a sharded, reduced-precision or fault-injected one.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
for _var in ("HOSMINER_WORKERS", "HOSMINER_PRECISION", "HOSMINER_FAULTS", "HOSMINER_TIMEOUT_S"):
    os.environ.pop(_var, None)


def pin_allocator() -> bool:
    """Serve every allocation from the heap and never give it back.

    By default glibc maps each large array afresh and unmaps it when
    freed, so the next one faults its pages in again. How long that
    takes depends on the host's memory, not on the program: large-inproc
    sessions took 110k or 230k page faults at random and 0.3-0.8 s of
    system time each, which moved its batch p50 by half. With the heap
    kept, a session faults nothing after the first. Workers are forked,
    so they inherit the setting. Returns False where the C library has
    no glibc ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_max = -1, -4
    return bool(mallopt(m_mmap_max, 0)) and bool(mallopt(m_trim_threshold, 1 << 30))


ALLOCATOR_PINNED = pin_allocator()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "allocator_pinned": ALLOCATOR_PINNED,
    }


def _parse(argv: "list[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: "list[str]") -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the package source is missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import report
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"known: {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    print(json.dumps({"environment": environment()}))
    print(json.dumps(report.run(workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
