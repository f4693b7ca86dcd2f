"""In-memory call tracing of urlab's layer modules, driven from outside the package.

Every public function defined in a layer module is replaced, in every urlab
module that holds a reference to it, by a wrapper that records calls and
self time (its own time minus the time of wrapped callees).  A few functions
also record work counts taken from their arguments or result.
Nothing under ``src/`` is modified; ``restore`` puts the originals back.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("operator_core", "quantum", "classical", "qfisher", "uncertainty", "scenarios")


def _mp_inverse_counts(args, kwargs, result, stats):
    n = len(args[0] if args else kwargs["s"])
    stats["max_n"] = max(stats["max_n"], n)
    stats["rank_deficit_sum"] += n - result.rank


def _apply_channel_counts(args, kwargs, result, stats):
    stats["kraus_applied"] += len((args[0] if args else kwargs["ch"]).kraus)


def _joint_povm_counts(args, kwargs, result, stats):
    stats["effects"] += len(result.effects)


def _model_from_povm_counts(args, kwargs, result, stats):
    stats["outcomes"] += len((args[1] if len(args) > 1 else kwargs["m"]).effects)


# Work counts per function: the counts it keeps and the update after each call.
# Each count is declared as a per-layer metric in BENCHMARK.json.
COUNTERS = {
    "operator_core.mp_inverse": (("max_n", "rank_deficit_sum"), _mp_inverse_counts),
    "quantum.apply_channel": (("kraus_applied",), _apply_channel_counts),
    "uncertainty.joint_povm": (("effects",), _joint_povm_counts),
    "classical.model_from_povm": (("outcomes",), _model_from_povm_counts),
}


class Tracer:
    """Wrappers for the layer functions of the imported urlab, and their spans.

    ``stats`` maps ``"<layer>.<function>"`` to a dict with ``calls``,
    ``self_s`` and any work counts.  Spans nest through an explicit stack, so
    self time excludes every wrapped callee.  The wrappers take effect
    between ``install`` and ``restore``.
    """

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._stack: list[list[float]] = []  # per open span: [time spent in children]
        modules = [m for n, m in sys.modules.items() if n == "urlab" or n.startswith("urlab.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"urlab.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        missing = set(COUNTERS) - set(self.stats)
        if missing:
            raise RuntimeError(f"counted functions not found: {sorted(missing)}")
        # every (module, name) that refers to a wrapped function
        self._sites = [
            (mod, attr, obj, wrappers[id(obj)][1])
            for mod in modules
            for attr, obj in vars(mod).items()
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj
        ]

    def _wrap(self, name: str, fn):
        keys, count = COUNTERS.get(name, ((), None))
        stats = self.stats[name] = {"calls": 0, "self_s": 0.0, **dict.fromkeys(keys, 0)}
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[0]
            if count is not None:
                count(args, kwargs, result, stats)
            return result

        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original, _ in self._sites:
            setattr(mod, attr, original)

    def take(self) -> dict[str, dict]:
        """A copy of the statistics so far; the live ones restart from zero."""
        snapshot = {name: dict(entry) for name, entry in self.stats.items()}
        for entry in self.stats.values():
            for key in entry:
                entry[key] = 0
        return snapshot


def counts(snapshot: dict[str, dict]) -> dict[str, int]:
    """Every integer count of a snapshot, keyed ``<function>.<count>``."""
    return {
        f"{name}.{key}": value
        for name, entry in snapshot.items()
        for key, value in entry.items()
        if key != "self_s"
    }
