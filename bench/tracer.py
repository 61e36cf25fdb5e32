"""Outside-in tracing of ar_iet: spans and counters from the benchmark's side.

`Tracer.install` replaces each public function of the seven traced modules
at every name another module binds it to (the imports of ar_iet's modules and
of the benchmark's job module), and `uninstall` puts the originals back;
nothing under src/ changes.  Calls a module makes to its own functions stay
unwrapped, so a span covers one call across a module boundary.

A span is (name, start, end, parent index, job id).  Counters are computed
from the wrapped calls' arguments and results, so they repeat exactly.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from collections import Counter

LAYERS = ("gasket", "words", "iet", "induction", "towers", "analysis", "cli")

# span name of each traced function; the other public functions of a module
# take the module's name for gasket and cli, and "<module>.other" elsewhere
SPAN_NAMES = {
    "towers": {
        "towers_at_stage": "towers.build",
        "partition_check": "towers.partition",
        "adjacency_check": "towers.adjacency",
        "level_component_counts": "towers.components",
    },
    "iet": {
        "trajectory": "iet.orbit",
        "ar9_apply": "iet.circle",
        "ar6_apply": "iet.circle",
        "glue_point": "iet.circle",
        "ar6_rotation_match": "iet.circle",
        "build_ar9": "iet.build",
        "ar9_from_placements": "iet.build",
        "glue_to_ar6": "iet.build",
        "build_ar6_canonical": "iet.build",
    },
    "induction": {
        "iterate_induction": "induction.iterate",
        "induce_step": "induction.iterate",
        "verify_induction": "induction.verify",
    },
    "words": {
        "stage_words": "words.stage",
        "multiplicative_stage_words": "words.stage",
        "factor_complexity": "words.factor",
        "stable_factor_complexity": "words.factor",
    },
    "analysis": {
        "preimage_clusters": "analysis.preimage",
        "two_measure_experiment": "analysis.frequency",
        "birkhoff_frequencies": "analysis.frequency",
        "l1_distance": "analysis.frequency",
    },
}


def _span_name(layer: str, function: str) -> str:
    if layer in ("gasket", "cli"):
        return layer
    return SPAN_NAMES[layer].get(function, f"{layer}.other")


def _map_bits(m) -> tuple[int, int]:
    ends = [v for iv in m.domain.values() for v in iv]
    return (max(v.numerator.bit_length() for v in ends),
            max(v.denominator.bit_length() for v in ends))


def _count_towers(c: Counter, args, result) -> None:
    c["towers.levels"] += sum(t.height for t in result.nine.values())


def _count_orbit(c: Counter, args, result) -> None:
    c["iet.steps"] += len(result)


def _count_circle_point(c: Counter, args, result) -> None:
    c["iet.circle.points"] += 1


def _count_iterate(c: Counter, args, result) -> None:
    c["induction.stages"] += len(result)
    for stage in result:
        c["induction.pushes"] += sum(stage.return_times.values())
        num, den = _map_bits(stage.map)
        c["induction.num_bits"] += num
        c["induction.den_bits"] += den


def _count_verify(c: Counter, args, result) -> None:
    c["induction.pushes"] += sum(result.return_times.values())


def _count_words(c: Counter, args, result) -> None:
    c["words.letters"] += sum(len(w) for w in result.values())


def _count_factor(c: Counter, args, result) -> None:
    words, n = args[0], args[1]
    c["words.factor_windows"] += sum(max(0, len(w) - n + 1) for w in words)


def _count_preimage(c: Counter, args, result) -> None:
    c["analysis.preimage.refine_steps"] += len(args[1]) - 1
    c["analysis.preimage.pieces"] += result.count


def _count_gasket(c: Counter, args, result) -> None:
    c["gasket.calls"] += 1


COUNTERS = {
    ("towers", "towers_at_stage"): _count_towers,
    ("iet", "trajectory"): _count_orbit,
    ("iet", "ar9_apply"): _count_circle_point,
    ("induction", "iterate_induction"): _count_iterate,
    ("induction", "verify_induction"): _count_verify,
    ("words", "stage_words"): _count_words,
    ("words", "multiplicative_stage_words"): _count_words,
    ("words", "factor_complexity"): _count_factor,
    ("analysis", "preimage_clusters"): _count_preimage,
}


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self, callers: tuple[types.ModuleType, ...] = ()):
        self.callers = callers
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, fn, name: str, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets: dict[int, tuple[object, types.ModuleType, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"ar_iet.{layer}"]
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    counter = _count_gasket if layer == "gasket" else COUNTERS.get((layer, name))
                    wrapper = self._wrap(obj, _span_name(layer, name), counter)
                    targets[id(obj)] = (obj, module, wrapper)
        callers = [m for n, m in sorted(sys.modules.items()) if n.startswith("ar_iet.")]
        for caller in callers + list(self.callers):
            for name, obj in list(vars(caller).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj and hit[1] is not caller:
                    setattr(caller, name, hit[2])
                    self._patched.append((caller, name, obj))

    def uninstall(self) -> None:
        while self._patched:
            caller, name, obj = self._patched.pop()
            setattr(caller, name, obj)

    def take(self) -> list:
        """The spans recorded so far; the tracer starts a fresh list."""
        if self._stack:
            raise RuntimeError("spans taken inside an open span")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans: list) -> Counter:
    """Seconds per span name, each span's duration minus its children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: Counter = Counter()
    for (name, *_), seconds in zip(spans, own):
        totals[name] += seconds
    return totals


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def median_counter(samples: list[Counter]) -> Counter:
    keys = set().union(*samples)
    return Counter({k: statistics.median(s.get(k, 0.0) for s in samples) for k in keys})
