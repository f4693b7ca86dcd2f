"""urlab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload oscillator-sweep --seed 0 --seconds 35 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout, never from an installed copy.  With ``--trace 0`` the run
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates traced and untraced passes and reports the per-layer metrics.
Human-readable lines (environment fingerprint, every metric with its unit,
check tallies) come first; the last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SHARE = 0.1  # of the pass time, spent on set-ups between passes in an untraced run
MIN_PASSES = 3  # in a traced run: traced, untraced, traced
# One BLAS thread: measured, a second one bought no wall time on any workload
# and doubled CPU time by spinning, which adds contention on a small machine.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fresh_urlab():
    """Import urlab from source as if for the first time in this process."""
    for name in [n for n in sys.modules if n == "urlab" or n.startswith("urlab.")]:
        del sys.modules[name]
    importlib.import_module("urlab.scenarios")  # pulls in every layer module
    return sys.modules["urlab"]


def set_up(make_workload, seed: int):
    """Import urlab afresh and generate the workload's inputs; time both.

    Every set-up compiles urlab from source: no bytecode cache is read or
    written, so set-up time does not depend on earlier runs or on the
    environment's bytecode settings.
    """
    saved = sys.dont_write_bytecode, sys.pycache_prefix
    sys.dont_write_bytecode, sys.pycache_prefix = True, str(ROOT / "perfbench" / "no-bytecode")
    try:
        t0 = time.perf_counter()
        urlab = fresh_urlab()
        workload = make_workload(seed, urlab)
        return urlab, workload, time.perf_counter() - t0
    finally:
        sys.dont_write_bytecode, sys.pycache_prefix = saved


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Tally:
    """The checks of a run: the verdicts of its first pass, and the benchmark's own.

    Every pass repeats the same inputs, so every pass must give the same
    verdicts; a pass that does not makes the run incorrect.  Counting one
    pass keeps ``attempted`` and ``failed`` a function of the workload and
    the seed alone, however many passes fit in the run.  Every failed
    verdict counts in ``failed``; a failed check of the benchmark's own
    also makes the run incorrect.
    """

    def __init__(self):
        self.first_pass: list | None = None
        self.repeats = True
        self.own: list = []  # (name, passed) of checks made once per run

    def add_pass(self, verdicts: list) -> None:
        if self.first_pass is None:
            self.first_pass = verdicts
        elif verdicts != self.first_pass:
            self.repeats = False

    def checks(self) -> list:
        return (
            self.first_pass
            + [("verdicts_repeat", self.repeats, True)]
            + [(name, ok, True) for name, ok in self.own]
        )


class Reference:
    """A fixed numpy kernel that does not touch urlab, run after every op.

    The machine this benchmark runs on changes speed with load it does not
    control, by up to 1.7x within seconds.  The kernel runs right after each
    op, at the same speed, so the ratio of the op times to the kernel times
    cancels the machine's speed and keeps the program's (see README.md).
    It mixes the kinds of work urlab does: a non-BLAS ``einsum`` like the
    Gram kernel's, small ``eigvalsh`` calls dominated by per-call overhead,
    complex matrix products and an SVD.  About 2 ms.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        d = 8
        self.u = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        self.images = rng.standard_normal((d * d - 1, d, d)) + 1j * rng.standard_normal((d * d - 1, d, d))
        self.small = [h + h.T for h in rng.standard_normal((20, 4, 4))]
        self.m = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))

    def __call__(self) -> float:
        """Run the kernel once; return its wall time."""
        import numpy as np

        t = time.perf_counter()
        np.einsum("pi,apq,qj->aij", self.u.conj(), self.images, self.u)
        for h in self.small:
            np.linalg.eigvalsh(h)
        self.m @ self.m @ self.m
        np.linalg.svd(self.m)
        return time.perf_counter() - t


class Pass(NamedTuple):
    walls: list  # wall time of each op
    cpus: list  # CPU time of each op
    refs: list  # wall time of the reference kernel after each op; empty if none ran

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def cpu(self) -> float:
        return sum(self.cpus)


def run_pass(workload, tally, reference=None) -> Pass:
    """Call every op of the workload once, each followed by the reference
    kernel if one is given; check results after the clocks stop."""
    results, walls, cpus, refs = [], [], [], []
    for op in workload.ops:
        c, t = time.process_time(), time.perf_counter()
        try:
            results.append(op())
        except Exception:
            traceback.print_exc()
            results.append(None)
        walls.append(time.perf_counter() - t)
        cpus.append(time.process_time() - c)
        if reference is not None:
            refs.append(reference())
    verdicts = []
    for result in results:
        if result is None:
            verdicts.append(("exception", False, True))
        else:
            verdicts.extend(workload.check(result))
    tally.add_pass(verdicts)
    return Pass(walls, cpus, refs)


def run_passes(run_one, seconds: float, min_passes: int) -> list:
    """Call run_one(pass index) while another call fits in the budget, and at least min_passes times."""
    passes, durations = [], []
    start = time.perf_counter()
    while len(passes) < min_passes or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t = time.perf_counter()
        passes.append(run_one(len(passes)))
        durations.append(time.perf_counter() - t)
    return passes


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(passes, setup_times) -> dict:
    walls = [x for p in passes for x in p.walls]
    cpus = [x for p in passes for x in p.cpus]
    refs = [x for p in passes for x in p.refs]
    # mean pass time over mean reference time, one reference run per op
    per_ref = len(refs) / len(passes) / sum(refs)
    return {
        "setup_s": statistics.median(setup_times),
        "pass_ref": per_ref * sum(walls),
        "pass_cpu_ref": per_ref * sum(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": 1e3 * statistics.median(walls),
        "op_p90_ms": 1e3 * p90(walls),
        "op_cpu_p90_ms": 1e3 * p90(cpus),
        "pass_median_s": statistics.median(p.wall for p in passes),
        "pass_cpu_median_s": statistics.median(p.cpu for p in passes),
        "ref_median_ms": 1e3 * statistics.median(refs),
    }


def per_layer(untraced, traced, snapshots, layers) -> dict:
    values = {}
    for name in snapshots[0]:
        for key in snapshots[0][name]:
            if key == "self_s":
                values[f"{name}.self_s"] = statistics.median(s[name]["self_s"] for s in snapshots)
            else:
                values[f"{name}.{key}"] = snapshots[0][name][key]
    for layer in layers:
        values[f"{layer}.self_s"] = statistics.median(
            sum(v["self_s"] for n, v in s.items() if n.startswith(layer + ".")) for s in snapshots
        )
    traced_wall = statistics.median(p.wall for p in traced)
    values["trace.overhead_frac"] = traced_wall / statistics.median(p.wall for p in untraced) - 1
    values["trace.coverage_frac"] = statistics.median(
        sum(v["self_s"] for v in s.values()) / p.wall for s, p in zip(snapshots, traced)
    )
    return values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "urlab" / "__init__.py").is_file():
        print(f"error: no urlab sources under {SRC}", file=sys.stderr)
        return 2

    # BLAS reads its thread count once, when numpy loads it
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (loaded outside the timed set-up)

    import spans
    from workloads import WORKLOADS

    make_workload = WORKLOADS[args.workload]
    urlab, workload, setup_s = set_up(make_workload, args.seed)
    setup_times = [setup_s]
    if Path(urlab.__file__).resolve().parent != SRC / "urlab":
        print(f"error: urlab imported from {urlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tally = Tally()
    reference = None if args.trace else Reference()
    # An untimed pass first: caches fill and lazy set-up finishes before the
    # clock runs, and its verdicts are the ones the timed passes must repeat.
    run_pass(workload, tally, reference)
    if args.trace:
        tracer = spans.Tracer()
        snapshots = []

        def traced_pass():
            tracer.install()
            try:
                result = run_pass(workload, tally)
            finally:
                tracer.restore()
            snapshots.append(tracer.take())
            return result

        # traced and untraced passes alternate, so a drift in machine speed
        # reaches both and cancels in the overhead
        passes = run_passes(
            lambda i: run_pass(workload, tally) if i % 2 else traced_pass(), args.seconds, MIN_PASSES
        )
        traced, untraced = passes[0::2], passes[1::2]
        # every traced pass repeats the same calls, so its counts must repeat exactly
        counts = [spans.counts(s) for s in snapshots]
        tally.own.append(("trace.counts_repeat", all(c == counts[0] for c in counts)))
        values = per_layer(untraced, traced, snapshots, spans.LAYERS)
        wanted = spec["per_layer"]
        summary = f"{len(untraced)} untraced and {len(traced)} traced passes, alternating"
    else:
        setup_budget = [0.0]

        def pass_then_set_ups(_):
            result = run_pass(workload, tally, reference)
            # Set-ups between passes, off the pass clock, sample the machine
            # over the whole run as the passes do.  Each one imports a new
            # urlab; the workload keeps the modules it was built with.
            setup_budget[0] += SETUP_SHARE * result.wall
            while sum(setup_times) < setup_budget[0]:
                setup_times.append(set_up(make_workload, args.seed)[2])
            # the discarded modules are collected here, not inside a timed op
            gc.collect()
            return result

        passes = run_passes(pass_then_set_ups, args.seconds, MIN_PASSES)
        values = end_to_end(passes, setup_times)
        wanted = spec["end_to_end"]
        summary = f"{len(passes)} passes, {len(passes) * len(workload.ops)} ops"

    env = fingerprint()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    checks = tally.checks()
    failures: dict[str, int] = {}
    for name, ok, _ in checks:
        if not ok:
            failures[name] = failures.get(name, 0) + 1
    failed = sum(failures.values())
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {summary}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    for name in [] if args.trace else sorted(set(values) - set(metrics)):
        print(f"  {name:48s} {values[name]:.6g} {name.rsplit('_', 1)[1]}  (not gated)")
    print(
        f"  {'failed_frac':48s} {failed / len(checks):.6g} ratio"
        f"  ({failed} of {len(checks)} checks failed: {failures or 'none'})"
    )
    result = {
        "correct": all(ok for _, ok, own in checks if own),
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
