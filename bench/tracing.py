"""Outside-in instrumentation of hetfed for the benchmark.

Nothing here edits the package: every hook replaces a module attribute or
a class method for the length of a run and puts the original back after.
`strategies` and `runner` import most library functions by name, so a
function is replaced in every hetfed module namespace that holds it, not
only in the module that defines it.

Two levels of hooks:

- `JobClock` is installed for every run. It adds one timestamp when a job
  enters `runner.run_strategy_repeat` and one at the job's first
  `Strategy.run_round`, and counts the sampled clients of each round.
- `Tracer` is installed only for traced runs. It records one span per
  call of each wrapped function (name, start, end, parent, job) and a
  small per-call count (rows, coordinates, bytes or a sub-model map key).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

perf_counter = time.perf_counter


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, old))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


def hetfed_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "hetfed" or n.startswith("hetfed.")]


def patch_function(patches: Patches, home, attr: str, make_wrapper) -> None:
    """Replace `home.attr` in every hetfed module that holds the same
    function object."""
    original = getattr(home, attr)
    wrapper = make_wrapper(original)
    for module in hetfed_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                patches.set(module, name, wrapper)


def classes_defining(classes, method: str) -> list[type]:
    """Every class in the MROs of `classes` that defines `method` itself."""
    seen: list[type] = []
    for cls in classes:
        for base in cls.__mro__:
            if method in base.__dict__ and base not in seen:
                seen.append(base)
    return seen


# ---------------------------------------------------------------------------
# untraced hooks


@dataclass
class Job:
    strategy: str
    repeat: int
    enter: float
    first_round: float | None = None
    updates: int = 0

    @property
    def setup_s(self) -> float:
        return self.first_round - self.enter


class JobClock:
    """Set-up time and client-update count of each job of a run."""

    def __init__(self) -> None:
        self.jobs: list[Job] = []

    def install(self, patches: Patches, runner, strategy_classes) -> None:
        original = runner.run_strategy_repeat

        def run_strategy_repeat(cfg, strategy_id, repeat):
            self.jobs.append(Job(strategy_id, repeat, perf_counter()))
            return original(cfg, strategy_id, repeat)

        patches.set(runner, "run_strategy_repeat", run_strategy_repeat)
        for cls in classes_defining(strategy_classes, "run_round"):
            patches.set(cls, "run_round", self._round_hook(cls.__dict__["run_round"]))

    def _round_hook(self, original):
        def run_round(strategy, state, sampled, round_index):
            job = self.jobs[-1]
            if job.first_round is None:
                job.first_round = perf_counter()
            job.updates += len(sampled)
            return original(strategy, state, sampled, round_index)

        return run_round


# ---------------------------------------------------------------------------
# traced hooks


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans of one traced run, kept in memory.

    A span is (name, start, end, parent index, job index, extra); parent
    and job are -1 outside any span or job. `jobs` lists the
    (workload, strategy, repeat) id shared by the spans of one job.
    """

    def __init__(self, workload: str, estimate_flops) -> None:
        self.workload = workload
        self.estimate_flops = estimate_flops
        self.spans: list[tuple | None] = []
        self.jobs: list[tuple[str, str, int]] = []
        self._stack: list[int] = []
        self._job = -1
        self._flops: dict = {}
        self._last_map: tuple[int, object] = (-1, None)

    # -- wiring ------------------------------------------------------------

    def install(self, patches: Patches, mods) -> None:
        """Wrap every instrumented function and method of the hetfed package `mods`."""
        targets = [
            (mods.config, "load_config", "config.load_config", None),
            (mods.datasets, "gen_synthetic", "datasets.gen_synthetic", None),
            (mods.datasets, "load_csv", "datasets.load_csv", None),
            (mods.datasets, "split_global", "datasets.split_global", None),
            (mods.datasets, "partition", "datasets.partition", None),
            (mods.resources, "sample_profiles", "resources.sample_profiles", None),
            (mods.resources, "build_pool", "resources.build_pool", None),
            (mods.resources, "assign_models", "resources.assign_models", None),
            (mods.resources, "estimate_times", "resources.estimate_times", None),
            (mods.resources, "fedepth_segments", "resources.fedepth_segments", None),
            (mods.nn, "backward", "nn.backward", self._backward_extra),
            (mods.nn, "train_local", "nn.train_local", None),
            (mods.nn, "forward", "nn.forward", self._rows("batch")),
            (mods.nn, "predict", "nn.predict", None),
            (mods.extract, "extract_width", "extract.extract_width", None),
            (mods.extract, "extract_channels", "extract.extract_channels", self._channels_key),
            (mods.extract, "extract_depth", "extract.extract_depth", self._depth_key),
            (mods.extract, "scatter_update", "extract.scatter_update", self._coords_extra),
            (mods.extract, "normalize", "extract.normalize", None),
            (mods.metrics, "model_accuracy", "metrics.model_accuracy", self._rows("features")),
            (mods.runner, "atomic_write_text", "runner.atomic_write_text", self._bytes_extra),
        ]
        for home, attr, name, extra in targets:
            patch_function(patches, home, attr, lambda fn, n=name, e=extra: self._wrap(n, fn, e))
        patch_function(patches, mods.runner, "run_strategy_repeat", self._wrap_job)
        classes = list(mods.strategies.STRATEGY_CLASSES.values())
        for method, name, extra in (
            ("run_round", "strategies.run_round", None),
            ("client_eval_model", "strategies.client_eval_model", self._eval_extra),
        ):
            for cls in classes_defining(classes, method):
                wrapped = self._wrap(name, cls.__dict__[method], extra, method_of=True)
                patches.set(cls, method, wrapped)

    def _wrap(self, name: str, fn, extra, method_of: bool = False):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            info = None if extra is None else extra(index, args[1:] if method_of else args, kwargs, result)
            spans[index] = (name, start, end, parent, self._job, info)
            return result

        return wrapper

    def _wrap_job(self, fn):
        inner = self._wrap("runner.run_strategy_repeat", fn, None)

        def run_strategy_repeat(cfg, strategy_id, repeat):
            self.jobs.append((self.workload, strategy_id, repeat))
            self._job = len(self.jobs) - 1
            try:
                return inner(cfg, strategy_id, repeat)
            finally:
                self._job = -1

        return run_strategy_repeat

    # -- per-call counts -----------------------------------------------------

    def _backward_extra(self, index, args, kwargs, result):
        model = _arg(args, kwargs, 0, "model")
        rows = int(_arg(args, kwargs, 1, "batch").shape[0])
        key = (model.spec, model.head_blocks)
        flops = self._flops.get(key)
        if flops is None:
            flops = self._flops[key] = 3.0 * self.estimate_flops(model.spec, model.head_blocks)
        return rows, flops * rows

    @staticmethod
    def _rows(param: str):
        def extra(index, args, kwargs, result):
            return int(_arg(args, kwargs, 1, param).shape[0])

        return extra

    @staticmethod
    def _coords_extra(index, args, kwargs, result):
        return int(sum(v.size for v in _arg(args, kwargs, 1, "sub_params").values()))

    @staticmethod
    def _bytes_extra(index, args, kwargs, result):
        return len(_arg(args, kwargs, 1, "text").encode("utf-8"))

    def _channels_key(self, index, args, kwargs, result):
        model = _arg(args, kwargs, 0, "model")
        channels = tuple(int(c) for c in _arg(args, kwargs, 1, "channels"))
        key = ("width", model.spec, model.head_blocks, channels)
        self._last_map = (index, key)
        return key

    def _depth_key(self, index, args, kwargs, result):
        model = _arg(args, kwargs, 0, "model")
        key = ("depth", model.spec, int(_arg(args, kwargs, 1, "depth_prefix")), result[1].head_set)
        self._last_map = (index, key)
        return key

    def _eval_extra(self, index, args, kwargs, result):
        # An extraction inside the call (a span opened after this one) names
        # the sub-model by its map; a call that hands back a stored model is
        # named by that object, which stays alive for the eval round.
        map_index, key = self._last_map
        if map_index < index:
            key = ("object", id(result))
        return (self._job, int(_arg(args, kwargs, 2, "round_index")), key)


# ---------------------------------------------------------------------------
# aggregation


@dataclass
class NameStats:
    calls: int = 0
    self_s: float = 0.0
    durations: list | None = None
    extras: list | None = None


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover
    (children nest inside their parent)."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans: list[tuple]) -> dict[str, NameStats]:
    """Per span name: call count, total self time, inclusive durations and
    the per-call counts."""
    stats: dict[str, NameStats] = {}
    for (name, start, end, _, _, extra), own in zip(spans, self_times(spans)):
        s = stats.get(name)
        if s is None:
            s = stats[name] = NameStats(durations=[], extras=[])
        s.calls += 1
        s.self_s += own
        s.durations.append(end - start)
        s.extras.append(extra)
    return stats
