"""Per-layer tracing for the traced benchmark run.

Each hook replaces one module attribute with a timing wrapper. The attribute
is the name as the calling module sees it (``margintree.split.solve_w`` is
what ``split_node`` looks up), so nothing under ``src/`` changes. Spans nest:
a hook's self time is its duration minus the time of the hooked calls made
inside it. A target that a refactor renamed or removed is reported absent,
together with every metric derived from it; the run itself goes on.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc

# Hooked functions, each named module.attribute as its caller looks it up.
TARGETS = (
    "margintree.cli.load_dataset",
    "margintree.cli.build_hierarchy",
    "margintree.cli.global_objective",
    "margintree.cli._evaluate_against_truth",
    "margintree.cli.export_hierarchy",
    "margintree.hier.split_node",
    "margintree.hier.node_objective",
    "margintree.split.init_assignment",
    "margintree.split.kmeans",
    "margintree.split.solve_balanced_assignment",
    "margintree.split.solve_w",
    "margintree.split.cost_matrix",
    "margintree.split.node_objective",
    "margintree.optim.hinge_loss",
    "margintree.optim.hinge_grad",
    "margintree.optim.regularizer_value",
    "margintree.optim.prox_sparse_group",
    "margintree.objective.cost_matrix",
    "margintree.objective.hinge_loss",
    "margintree.objective.regularizer_value",
)
# NodeData.features copies the node's rows on every access; counted, not timed.
FEATURES = ("margintree.core", "NodeData", "features")
FEATURES_KEY = ".".join(FEATURES)

LOAD = "margintree.cli.load_dataset"
BUILD = "margintree.cli.build_hierarchy"
SCORE = "margintree.cli._evaluate_against_truth"
SPLIT = "margintree.hier.split_node"
FLOW = "margintree.split.solve_balanced_assignment"
OPTIM = "margintree.split.solve_w"
MB = 1024.0 * 1024.0


def _observed(key: str) -> str:
    return f"{key} (arguments or result)"


class Absent(Exception):
    """A metric's hook target does not exist in the program under test."""


class _Stat:
    __slots__ = ("calls", "total", "child", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.extra = {}


class Tracer:
    """Installs the hooks, keeps the spans of the current cycle in memory,
    and removes the hooks again. Untraced ops run between ``uninstall`` and
    the next ``install``, with every original attribute in place."""

    def __init__(self):
        self.absent: dict[str, str] = {}
        self.stats: dict[str, _Stat] = {}
        self.flow_calls: list[tuple[int, int, float]] = []
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def reset(self) -> None:
        self.stats = {}
        self.flow_calls = []
        self._stack = []

    def _stat(self, key: str) -> _Stat:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = _Stat()
        return stat

    def span(self, key: str, fn, *args, **kwargs):
        """Call fn as a span named key; nested spans count as its children."""
        frame = [0.0]  # time spent in nested spans
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            stat = self._stat(key)
            stat.calls += 1
            stat.total += elapsed
            stat.child += frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed
        try:
            self._observe(key, args, result, elapsed)
        except (IndexError, AttributeError, TypeError, ValueError, OSError) as err:
            # the call no longer looks as expected; its derived metrics go absent
            self.absent[_observed(key)] = f"{type(err).__name__}: {err}"
        return result

    def _observe(self, key, args, result, elapsed) -> None:
        extra = self._stat(key).extra
        if key == FLOW:
            n, k = args[0].shape
            self.flow_calls.append((int(n), int(k), elapsed))
            extra["instances"] = extra.get("instances", 0) + int(n)
        elif key == SPLIT:
            # a result without .iterations leaves split.alternations absent
            if hasattr(result, "iterations"):
                extra["alternations"] = extra.get("alternations", 0) + int(result.iterations)
        elif key == LOAD:
            extra["bytes"] = extra.get("bytes", 0) + os.path.getsize(args[0])

    def _wrap(self, key: str, original):
        if key == SCORE:

            @functools.wraps(original)
            def scored(*args, **kwargs):
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    result = self.span(key, original, *args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
                extra = self._stat(key).extra
                extra["peak_bytes"] = max(extra.get("peak_bytes", 0), peak)
                return result

            return scored

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.span(key, original, *args, **kwargs)

        return wrapper

    def _features_property(self, original: property) -> property:
        def fget(node):
            value = original.fget(node)
            stat = self._stat(FEATURES_KEY)
            stat.calls += 1
            stat.extra["bytes"] = stat.extra.get("bytes", 0) + value.nbytes
            return value

        return property(fget, doc=original.__doc__)

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        for key in TARGETS:
            module_name, _, attr = key.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError) as err:
                self.absent[key] = f"{type(err).__name__}: {err}"
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(key, original))
        module_name, cls_name, attr = FEATURES
        try:
            owner = getattr(importlib.import_module(module_name), cls_name)
            original = owner.__dict__[attr]
            if not isinstance(original, property):
                raise TypeError(f"{cls_name}.{attr} is no longer a property")
        except (ImportError, AttributeError, KeyError, TypeError) as err:
            self.absent[FEATURES_KEY] = f"{type(err).__name__}: {err}"
        else:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._features_property(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------
    def _get(self, key: str) -> _Stat:
        if key in self.absent:
            raise Absent(key)
        return self.stats.get(key) or _Stat()

    def calls(self, *keys: str) -> int:
        return sum(self._get(key).calls for key in keys)

    def seconds(self, *keys: str) -> float:
        return sum(self._get(key).total for key in keys)

    def self_seconds(self, key: str) -> float:
        stat = self._get(key)
        return stat.total - stat.child

    def extra(self, key: str, name: str):
        stat = self._get(key)
        if _observed(key) in self.absent or name not in stat.extra:
            raise Absent(f"{key}:{name}")
        return stat.extra[name]


# name -> (unit, better, value from one traced cycle). "cli" is the span the
# benchmark itself records around each margintree.cli.main call; rounds comes
# from the cluster report, not from a hook.
LAYER_METRICS = {
    "cli.self_s": ("s", "lower", lambda t, r: t.self_seconds("cli")),
    "data.load_s": ("s", "lower", lambda t, r: t.seconds(LOAD)),
    "data.load_mb_per_s": ("MB/s", "higher", lambda t, r: t.extra(LOAD, "bytes") / MB / t.seconds(LOAD)),
    "hier.build_s": ("s", "lower", lambda t, r: t.seconds(BUILD)),
    "hier.self_s": ("s", "lower", lambda t, r: t.self_seconds(BUILD)),
    "hier.objective_s": ("s", "lower", lambda t, r: t.seconds("margintree.cli.global_objective")),
    "hier.rounds": ("count", "higher", lambda t, r: r),
    "hier.candidates": ("count", "lower", lambda t, r: t.calls(SPLIT)),
    "hier.candidate_use": ("1", "higher", lambda t, r: r / t.calls(SPLIT)),
    "split.s": ("s", "lower", lambda t, r: t.seconds(SPLIT)),
    "split.self_s": ("s", "lower", lambda t, r: t.self_seconds(SPLIT)),
    "split.init_s": ("s", "lower", lambda t, r: t.seconds("margintree.split.init_assignment")),
    "split.alternations": ("count", "lower", lambda t, r: t.extra(SPLIT, "alternations")),
    "flow.calls": ("count", "lower", lambda t, r: t.calls(FLOW)),
    "flow.s": ("s", "lower", lambda t, r: t.seconds(FLOW)),
    "flow.instances": ("count", "lower", lambda t, r: t.extra(FLOW, "instances")),
    "flow.us_per_instance": ("us", "lower", lambda t, r: 1e6 * t.seconds(FLOW) / t.extra(FLOW, "instances")),
    "flow.share": ("1", "lower", lambda t, r: t.seconds(FLOW) / t.seconds(BUILD)),
    "optim.calls": ("count", "lower", lambda t, r: t.calls(OPTIM)),
    "optim.s": ("s", "lower", lambda t, r: t.seconds(OPTIM)),
    "optim.self_s": ("s", "lower", lambda t, r: t.self_seconds(OPTIM)),
    "optim.share": ("1", "lower", lambda t, r: t.seconds(OPTIM) / t.seconds(BUILD)),
    "optim.loss_evals": ("count", "lower", lambda t, r: t.calls("margintree.optim.hinge_loss")),
    "optim.grad_evals": ("count", "lower", lambda t, r: t.calls("margintree.optim.hinge_grad")),
    "optim.reg_evals": ("count", "lower", lambda t, r: t.calls("margintree.optim.regularizer_value")),
    "optim.prox_evals": ("count", "lower", lambda t, r: t.calls("margintree.optim.prox_sparse_group")),
    "objective.reg_s": (
        "s", "lower",
        lambda t, r: t.seconds("margintree.optim.regularizer_value", "margintree.objective.regularizer_value"),
    ),
    "objective.hinge_s": (
        "s", "lower", lambda t, r: t.seconds("margintree.optim.hinge_loss", "margintree.objective.hinge_loss"),
    ),
    "objective.cost_matrix_s": (
        "s", "lower", lambda t, r: t.seconds("margintree.split.cost_matrix", "margintree.objective.cost_matrix"),
    ),
    "objective.node_objective_s": (
        "s", "lower", lambda t, r: t.seconds("margintree.split.node_objective", "margintree.hier.node_objective"),
    ),
    "kmeans.calls": ("count", "lower", lambda t, r: t.calls("margintree.split.kmeans")),
    "kmeans.s": ("s", "lower", lambda t, r: t.seconds("margintree.split.kmeans")),
    "core.feature_copies": ("count", "lower", lambda t, r: t.calls(FEATURES_KEY)),
    "core.feature_copy_mb": ("MB_computed", "lower", lambda t, r: t.extra(FEATURES_KEY, "bytes") / MB),
    "metrics.score_s": ("s", "lower", lambda t, r: t.seconds(SCORE)),
    "metrics.peak_alloc_mb": ("MB", "lower", lambda t, r: t.extra(SCORE, "peak_bytes") / MB),
    "export.s": ("s", "lower", lambda t, r: t.seconds("margintree.cli.export_hierarchy")),
}

# Counts that must repeat exactly between two traced cycles on one input.
EXACT_COUNTS = (
    "flow.calls",
    "flow.instances",
    "optim.loss_evals",
    "optim.grad_evals",
    "optim.reg_evals",
    "optim.prox_evals",
    "split.alternations",
    "hier.rounds",
    "hier.candidates",
    "core.feature_copies",
)


def layer_values(tracer: Tracer, rounds: int) -> tuple[dict[str, float], dict[str, str]]:
    """Every per-layer metric of one traced cycle, and the absent ones with
    the reason."""
    values, absent = {}, {}
    for name, (_unit, _better, read) in LAYER_METRICS.items():
        try:
            values[name] = float(read(tracer, rounds))
        except Absent as err:
            absent[name] = f"hook target absent: {err}"
        except ZeroDivisionError:
            absent[name] = "no calls to divide by"
    return values, absent
