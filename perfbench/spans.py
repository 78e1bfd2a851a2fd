"""Per-layer spans for the traced benchmark pass, installed from outside the package.

A :class:`Tracer` replaces selected public functions of ``hybridlcu`` with
wrappers that record one span per call: the wrapped name, start, end and the
span that was open when the call began. Spans stay in memory and are dumped
once, when the process ends. A target that no longer exists in the package
is skipped with a warning and reported as missing, so the run still
completes after a later refactor deletes or renames it.

This module imports nothing from ``hybridlcu`` at import time: the parent
benchmark process reads the metric table from here without paying for the
package import.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
import tracemalloc
import warnings

# Functions wrapped in the traced pass, as "<module>.<attribute path>" under
# the hybridlcu package. Every write_* function of the package is wrapped as
# well; together with cli._write_partition_csv they make up the csv.* totals.
TARGETS = (
    "cli.main",
    "cli._write_partition_csv",
    "prng.uniforms",
    "hybrid.Sampler.__init__",
    "hybrid.Sampler.sample_shots",
    "hybrid.write_shot_csv",
    "hybrid.outcome_distribution",
    "hybrid.exact_expectation",
    "partition.enumerate_partitions",
    "partition.reduction_factor",
    "partition.group_operators",
    "qed.apply_pauli_channel",
    "qed.random_codeword",
    "qed.qed_metrics",
    "qed.apply_biased_noise",
    "lchs.window_weight_sum",
    "lchs.fig_sweep",
    "qlss.sweep",
    "gsp.hybrid_gsp",
    "estimate.estimate_numerator",
    "estimate.estimate_ratio",
    "qcore.density",
    "qcore.eigh",
    "lcu.LcuDecomposition.from_terms",
)

MODULES = ("cli", "prng", "hybrid", "partition", "qed", "lchs", "qlss", "gsp", "estimate", "qcore", "lcu")

SAMPLE_SHOTS = "hybrid.Sampler.sample_shots"

# Per-layer metrics reported by a traced run, with their units. Each name is
# "<target>.<stat>" for one wrapped target, or an aggregate documented in
# README.md. MB is 10**6 bytes throughout.
LAYER_METRICS = (
    ("prng.uniforms.calls", "count"),
    ("prng.uniforms.self_s", "s"),
    ("prng.draws", "count"),
    ("hybrid.Sampler.sample_shots.calls", "count"),
    ("hybrid.Sampler.sample_shots.self_s", "s"),
    ("hybrid.Sampler.sample_shots.peak_mb", "MB"),
    ("hybrid.Sampler.sample_shots.table_mb_computed", "MB"),
    ("hybrid.write_shot_csv.self_s", "s"),
    ("hybrid.write_shot_csv.bytes", "B"),
    ("hybrid.Sampler.__init__.self_s", "s"),
    ("hybrid.outcome_distribution.calls", "count"),
    ("hybrid.outcome_distribution.self_s", "s"),
    ("hybrid.exact_expectation.calls", "count"),
    ("hybrid.exact_expectation.self_s", "s"),
    ("partition.enumerate_partitions.self_s", "s"),
    ("partition.reduction_factor.calls", "count"),
    ("partition.reduction_factor.self_s", "s"),
    ("partition.group_operators.calls", "count"),
    ("partition.group_operators.self_s", "s"),
    ("qed.apply_pauli_channel.calls", "count"),
    ("qed.apply_pauli_channel.self_s", "s"),
    ("qed.random_codeword.calls", "count"),
    ("qed.random_codeword.self_s", "s"),
    ("qed.qed_metrics.calls", "count"),
    ("qed.qed_metrics.self_s", "s"),
    ("qed.apply_biased_noise.calls", "count"),
    ("qed.apply_biased_noise.self_s", "s"),
    ("lchs.window_weight_sum.calls", "count"),
    ("lchs.window_weight_sum.self_s", "s"),
    ("lchs.fig_sweep.self_s", "s"),
    ("qlss.sweep.self_s", "s"),
    ("gsp.hybrid_gsp.self_s", "s"),
    ("estimate.estimate_numerator.self_s", "s"),
    ("estimate.estimate_ratio.self_s", "s"),
    ("qcore.density.calls", "count"),
    ("qcore.density.self_s", "s"),
    ("qcore.eigh.calls", "count"),
    ("qcore.eigh.self_s", "s"),
    ("lcu.LcuDecomposition.from_terms.calls", "count"),
    ("lcu.LcuDecomposition.from_terms.self_s", "s"),
    ("csv.bytes", "B"),
    ("csv.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.listed_share", "ratio"),
    ("setup.numpy_s", "s"),
    ("setup.scipy_s", "s"),
    ("setup.hybridlcu_s", "s"),
)


def _resolve(name: str):
    """(owner, attribute, raw attribute) for a target, or None if it is gone."""
    module, *path = name.split(".")
    try:
        owner = importlib.import_module(f"hybridlcu.{module}")
        for part in path[:-1]:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, path[-1])
    except (ImportError, AttributeError):
        return None
    if not callable(raw) and not isinstance(raw, (classmethod, staticmethod)):
        return None
    return owner, path[-1], raw


def _replace(owner, attr: str, raw, make_wrapper) -> None:
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, attr, type(raw)(make_wrapper(raw.__func__)))
    else:
        setattr(owner, attr, make_wrapper(raw))


def writer_names() -> list[str]:
    """Every ``write_*`` function defined in the package's modules, as target names."""
    names = []
    for module in MODULES:
        try:
            mod = importlib.import_module(f"hybridlcu.{module}")
        except ImportError:
            continue
        for attr, value in vars(mod).items():
            if attr.startswith("write_") and inspect.isfunction(value) and value.__module__ == mod.__name__:
                names.append(f"{module}.{attr}")
    return names


def is_writer(name: str) -> bool:
    return name.rsplit(".", 1)[-1].startswith(("write_", "_write_"))


class Tracer:
    """Span recorder for one process; install once, dump once at exit."""

    def __init__(self):
        self.names: list[str] = []
        self.missing: list[str] = []
        # (name index, start, end, parent span index or -1), in call order
        self.spans: list = []
        self.counters: dict[str, float | None] = {}
        self._local = threading.local()

    def install(self) -> None:
        wanted = list(TARGETS)
        wanted += [w for w in writer_names() if w not in wanted]
        for name in wanted:
            found = _resolve(name)
            if found is None:
                warnings.warn(f"trace target {name} not found in hybridlcu; reported as null", stacklevel=2)
                self.missing.append(name)
                continue
            owner, attr, raw = found
            _replace(owner, attr, raw, functools.partial(self._wrap, name))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func):
        index = len(self.names)
        self.names.append(name)
        spans = self.spans
        counter = self._counter_for(name)
        signature = inspect.signature(func) if counter else None
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                spans[slot] = (index, start, clock(), parent)
                stack.pop()
            if counter is not None:
                self._count(name, *counter, lambda: signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _counter_for(self, name: str):
        """(counter key, update) for a target whose work is counted: amounts
        read from its arguments or result, combined into the counter."""
        if name == "prng.uniforms":
            return "prng.draws", lambda old, args, result: old + int(result.size)
        if name == SAMPLE_SHOTS:
            # size of the N x 4d float64 outcome-table gather, computed from
            # the shot count and dimension rather than measured
            return f"{name}.table_mb_computed", lambda old, args, result: max(
                old, args["count"] * 4 * args["self"].channel.dimension * 8 / 1e6
            )
        if is_writer(name):
            return f"{name}.bytes", lambda old, args, result: old + os.path.getsize(args["path"])
        return None

    def _count(self, name: str, key: str, update, bind, result) -> None:
        old = self.counters.setdefault(key, 0)
        if old is None:
            return
        try:
            self.counters[key] = update(old, bind(), result)
        except Exception as exc:  # a renamed argument must not stop the run
            warnings.warn(f"counter {key} of {name} unavailable ({exc!r}); reported as null", stacklevel=3)
            self.counters[key] = None

    def dump(self) -> dict:
        return {"names": self.names, "missing": self.missing, "spans": self.spans, "counters": self.counters}


class MemoryProbe:
    """Peak traced allocation inside each ``Sampler.sample_shots`` call.

    tracemalloc runs only while the wrapped call runs, in a pass of its own,
    so it inflates neither the traced self times nor the untraced timings.
    """

    def __init__(self):
        self.peak_mb: float | None = None

    def install(self) -> None:
        found = _resolve(SAMPLE_SHOTS)
        if found is None:
            warnings.warn(f"trace target {SAMPLE_SHOTS} not found in hybridlcu; reported as null", stacklevel=2)
            return
        owner, attr, raw = found
        self.peak_mb = 0.0
        _replace(owner, attr, raw, self._wrap)

    def _wrap(self, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return func(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_mb = max(self.peak_mb, peak / 1e6)

        return wrapper

    def dump(self) -> dict:
        return {"peak_mb": self.peak_mb}


def aggregate(dumps: list[dict]) -> dict[str, dict]:
    """Per-name calls, total and self time summed over the dumps of several processes.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so this is the uncovered part.
    """
    stats: dict[str, dict] = {}
    for dump in dumps:
        names = dump["names"]
        records = dump["spans"]
        child = [0.0] * len(records)
        for _, start, end, parent in records:
            if parent >= 0:
                child[parent] += end - start
        for (index, start, end, _), covered in zip(records, child):
            entry = stats.setdefault(names[index], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        for name in names:
            stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    return stats
