"""Span recording for the traced benchmark reps.

The program has no spans of its own yet, so the benchmark records them from
outside: :func:`install` replaces the public functions and methods listed in
:data:`TARGETS` with wrappers that time each call.  A span is
``[trace_id, span_id, parent_id, name, start, end]`` with ``perf_counter``
times; spans stay in memory until :meth:`Recorder.write_jsonl`.

Forked pool workers inherit the wrappers but record nothing: a wrapper only
records in the process and thread that created its recorder, so work done
in workers is reported from the program's own ``MiningStats`` instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Span = List[Any]  # [trace_id, span_id, parent_id, name, start, end]
# Adds the work a call does to the counters, from its positional arguments.
CountFn = Callable[[Counter, Tuple[Any, ...]], None]


def _dp_cells_padded(counters: Counter, args: Tuple[Any, ...]) -> None:
    padded, min_sup = args
    rows, width = padded.shape
    counters["support.dp_cells"] += rows * width * (min_sup + 1)
    counters["support.dp_batch_calls"] += 1


def _dp_cells_vector(counters: Counter, args: Tuple[Any, ...]) -> None:
    probabilities, min_sup = args
    counters["support.dp_cells"] += len(probabilities) * (min_sup + 1)


# (module, class or None, attribute, span name, counter).  Functions that
# other modules import by name are patched at the importing module, which is
# where the call looks them up; a span name's prefix before the first "." is
# its layer.
TARGETS: Tuple[Tuple[str, Optional[str], str, str, Optional[CountFn]], ...] = (
    ("repro.core.miner", "MPFCIMiner", "mine", "miner.mine", None),
    ("repro.core.cache", "SupportDPCache", "seed_frequent_probabilities",
     "support.seed_frequent_probabilities", None),
    ("repro.core.cache", "SupportDPCache", "frequent_probability_of_tidset",
     "support.frequent_probability_of_tidset", None),
    ("repro.core.cache", "SupportDPCache", "tail_table_of_tidset",
     "support.tail_table_of_tidset", None),
    ("repro.core.support", None, "frequent_probability_padded_batch",
     "support.frequent_probability_padded_batch", _dp_cells_padded),
    ("repro.core.support", None, "frequent_probability",
     "support.frequent_probability", _dp_cells_vector),
    ("repro.core.support", None, "tail_probability_table",
     "support.tail_probability_table", _dp_cells_vector),
    ("repro.core.tidsets", "BitmapTidsetEngine", "intersect", "tidsets.intersect", None),
    ("repro.core.tidsets", "BitmapTidsetEngine", "intersect_many", "tidsets.intersect_many", None),
    ("repro.core.tidsets", "BitmapTidsetEngine", "extend_all_items",
     "tidsets.extend_all_items", None),
    ("repro.core.tidsets", "BitmapTidsetEngine", "pairwise_conjunctions",
     "tidsets.pairwise_conjunctions", None),
    ("repro.core.tidsets", "BitmapTidsetEngine", "probabilities_array",
     "tidsets.probabilities_array", None),
    ("repro.core.tidsets", "BitmapTidsetEngine", "probabilities", "tidsets.probabilities", None),
    ("repro.core.tidsets", "BitmapTidsetEngine", "absent_factors", "tidsets.absent_factors", None),
    ("repro.core.tidsets", "BitmapTidsetEngine", "superset_covered",
     "tidsets.superset_covered", None),
    ("repro.core.events", "ExtensionEventSystem", "__init__", "events.build", None),
    ("repro.core.events", "ExtensionEventSystem", "pairwise_matrix",
     "events.pairwise_matrix", None),
    ("repro.core.events", "ExtensionEventSystem", "union_probability_exact",
     "events.union_probability_exact", None),
    ("repro.core.miner", None, "frequent_closed_probability_bounds",
     "bounds.frequent_closed_probability_bounds", None),
    ("repro.core.miner", None, "chernoff_hoeffding_bound_for_tidset",
     "bounds.chernoff_hoeffding_bound_for_tidset", None),
    ("repro.core.miner", None, "approx_union_probability", "approx.approx_union_probability", None),
    ("repro.core.approx", None, "sample_conditional_presence_batch", "approx.sampler", None),
    ("repro.runtime.supervisor", None, "plan_root_branches", "supervisor.plan_root_branches", None),
    ("repro.runtime.sharding", None, "plan_root_branches", "supervisor.plan_root_branches", None),
    ("repro.runtime.sharding", None, "run_supervised", "supervisor.run_supervised", None),
    ("repro.runtime.checkpoint", "CheckpointWriter", "__init__", "checkpoint.open", None),
    ("repro.runtime.checkpoint", "CheckpointWriter", "write_branch", "checkpoint.write", None),
    ("repro.runtime.checkpoint", "CheckpointWriter", "write_shard_scan", "checkpoint.write", None),
    ("repro.runtime.checkpoint", "CheckpointWriter", "write_shard_lost", "checkpoint.write", None),
    ("repro.runtime.checkpoint", "CheckpointWriter", "write_cancelled", "checkpoint.write", None),
    ("repro.runtime.sharding", None, "pmf_tail_convolve", "sharding.merge_verify", None),
    ("repro.runtime.sharding", None, "frequent_probability", "sharding.merge_dp", None),
)


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.trace_id = 0
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _recording(self) -> bool:
        return os.getpid() == self._pid and threading.get_ident() == self._thread

    def _open(self, name: str) -> Span:
        record: Span = [
            self.trace_id,
            len(self.spans),
            self._stack[-1] if self._stack else None,
            name,
            time.perf_counter(),
            0.0,
        ]
        self.spans.append(record)
        self._stack.append(record[1])
        return record

    def _close(self, record: Span) -> None:
        record[5] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` body as one span (the benchmark's own calls)."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, owner: Any, attribute: str, name: str, count: Optional[CountFn] = None) -> None:
        """Replace ``owner.attribute`` with a recording wrapper."""
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder._recording():
                return original(*args, **kwargs)
            record = recorder._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(record)
            recorder.counters[name] += 1
            if count is not None:
                count(recorder.counters, args)
            return result

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write_jsonl(self, path: Path) -> None:
        keys = ("trace", "span", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")


def install(recorder: Recorder) -> None:
    """Wrap every target; a module not yet imported is imported first."""
    for module_name, class_name, attribute, name, count in TARGETS:
        owner: Any = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        recorder.wrap(owner, attribute, name, count)


def covered_length(
    interval: Tuple[float, float], children: Sequence[Tuple[float, float]]
) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    start, end = interval
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in children if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered_length((start, end), children.get(span_id, ()))
        for _, span_id, _, _, start, end in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time of the spans of each name."""
    totals: Dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for _, span_id, _, name, _, _ in spans:
        totals[name] += own[span_id]
    return dict(totals)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
