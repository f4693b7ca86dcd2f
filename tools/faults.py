"""Median minor page faults and wall time of warm passes of one perfbench workload.

    PYTHONPATH=src python tools/faults.py WORKLOAD SEED PASSES

Builds WORKLOAD (a name in perfbench/workloads.py) at SEED with the urlab found
on the path, runs one pass to warm it, then PASSES passes, each measured by the
process's getrusage ru_minflt and by perf_counter, and prints the median of
each.  BLAS runs one thread, as in the benchmark.  The tool only reads
perfbench/workloads.py and writes no file; point PYTHONPATH at another checkout's
src to count that tree.
"""

import gc
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def count(make_workload, seed: int, passes: int) -> tuple[float, float]:
    """The median minor faults and the median wall seconds of the warm passes."""
    import urlab.scenarios  # noqa: F401  (the workloads reach urlab.scenarios and urlab.randoms)

    ops = make_workload(seed, sys.modules["urlab"]).ops
    faults, walls = [], []
    for k in range(passes + 1):
        gc.collect()
        f, t = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        for op in ops:
            op()
        if k:  # the first pass only warms
            walls.append(time.perf_counter() - t)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f)
    return statistics.median(faults), statistics.median(walls)


def main(argv: list) -> int:
    if len(argv) != 3 or not argv[1].isdigit() or not argv[2].isdigit() or int(argv[2]) < 1:
        sys.exit(__doc__)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read once, when numpy loads its BLAS
    sys.dont_write_bytecode = True  # no cache files under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    workload, seed, passes = argv[0], int(argv[1]), int(argv[2])
    if workload not in WORKLOADS:
        sys.exit(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    faults, wall = count(WORKLOADS[workload], seed, passes)
    print(f"{workload} seed {seed}: {passes} warm passes, "
          f"median {faults:g} minor faults, median {wall:.4f} s wall")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
