"""Per-layer attribution for the traced run.

Two sources feed the per-layer metrics:

* the spans the program already emits (``queue.wait``,
  ``shard.integrate``, ``wal.append``, ``realign``, ``shards.merge``,
  ``view.refresh``, ``push.publish``, ``http.request``), collected by a
  :class:`LayerStore` behind a ``Tracer(sample_rate=1.0)``;
* timing wrappers installed from here around public functions that have
  no span of their own (:data:`WRAPPED`).  A wrapper records wall time
  and thread CPU time, each also as *self* time — minus what wrapped
  calls nested inside it on the same thread took — because
  ``StoryRefiner.refine`` calls ``StoryAligner.align`` again after
  every round.

Every layer shares one interpreter lock, so a span's wall time includes
waiting for other threads.  ``*.busy_s`` and ``*.self_s`` are therefore
thread CPU seconds: they add up to the process's CPU time, not to more
than the wall clock.  Percentiles and maxima are wall time, the latency
the layer adds, except ``runtime.integrate.q1_p50_us``/``q4_p50_us``,
which compare the work per arrival early and late in the history and so
use CPU time.

Nothing under ``src/`` changes: the wrappers are set on the classes for
the traced round only and removed afterwards.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.connect.normalize import Normalizer, Rejection
from repro.core.alignment import StoryAligner
from repro.core.refinement import StoryRefiner
from repro.obs import SpanStore, Tracer
from repro.runtime.runtime import ShardedRuntime
from repro.server.views import ViewStore

from load import percentile


def _alignment_counts(result) -> Dict[str, int]:
    stats = result.stats
    return {
        "story_pairs_scored": stats.story_pairs_scored,
        "edges": stats.edges,
        "snippet_pairs_scored": stats.snippet_pairs_scored,
    }


def _refinement_counts(result) -> Dict[str, int]:
    return {
        "rounds": result.rounds,
        "moves": result.num_moves,
        "conflicts_checked": result.conflicts_checked,
    }


def _normalize_counts(result) -> Dict[str, int]:
    return {"rejected": int(isinstance(result, Rejection))}


#: (layer name, owner class, method, counts taken from the return value)
WRAPPED: Tuple[Tuple[str, type, str, Optional[Callable]], ...] = (
    ("normalize", Normalizer, "normalize", _normalize_counts),
    ("offer", ShardedRuntime, "offer", None),
    ("align", StoryAligner, "align", _alignment_counts),
    ("refine", StoryRefiner, "refine", _refinement_counts),
    ("install", ViewStore, "install", None),
)


#: per-layer metric -> unit; ``bench.*`` are computed by run.py
LAYER_UNITS = {
    "connect.normalize.busy_s": "s",
    "connect.rejected": "count",
    "runtime.ingest.wall_s": "s",
    "runtime.offer.busy_s": "s",
    "runtime.offer.p99_us": "us",
    "runtime.queue.wait_p95_ms": "ms",
    "runtime.integrate.busy_s": "s",
    "runtime.integrate.q1_p50_us": "us",
    "runtime.integrate.q4_p50_us": "us",
    "identify.comparisons_per_snippet": "ratio",
    "identify.candidates_per_snippet": "ratio",
    "identify.merges": "count",
    "identify.splits": "count",
    "runtime.wal.append.busy_s": "s",
    "runtime.wal.bytes": "bytes",
    "runtime.realign.count": "count",
    "runtime.realign.busy_s": "s",
    "runtime.realign.max_s": "s",
    "runtime.merge.busy_s": "s",
    "runtime.merge.max_ms": "ms",
    "align.calls": "count",
    "align.self_s": "s",
    "align.story_pairs_scored": "count",
    "align.edges": "count",
    "align.pair_yield": "ratio",
    "align.snippet_pairs_scored": "count",
    "refine.self_s": "s",
    "refine.rounds": "count",
    "refine.moves": "count",
    "refine.conflicts_checked": "count",
    "refine.move_yield": "ratio",
    "view.refresh.count": "count",
    "view.refresh.busy_s": "s",
    "view.refresh.p50_s": "s",
    "view.refresh.first_s": "s",
    "view.refresh.last_s": "s",
    "view.install.busy_s": "s",
    "http.server_p95_ms": "ms",
    "http.cache_hit_ratio": "ratio",
    "push.publish.busy_s": "s",
    "push.events_per_snippet": "ratio",
    "push.dropped": "count",
    "bench.gen_late_p95_ms": "ms",
    "bench.trace_overhead": "ratio",
    "bench.host_calib_ms": "ms",
}


class LayerStore(SpanStore):
    """A SpanStore that also keeps every span's duration, in end order.

    The stock store keeps bounded reservoirs (its job is ``/tracez``);
    busy time needs every span, so this subclass appends ``(wall, cpu,
    attrs)`` per span name before handing the span on unchanged.
    """

    def __init__(self) -> None:
        super().__init__(max_traces=64)
        self.spans: Dict[str, List[Tuple[float, float, dict]]] = (
            defaultdict(list)
        )
        self.frozen = False

    def record(self, span: dict) -> None:
        duration = span.get("duration")
        if duration is not None and not self.frozen:
            # list.append is atomic under the interpreter lock
            self.spans[span["name"]].append(
                (duration, span.get("cpu_time") or 0.0,
                 span.get("attrs") or {})
            )
        super().record(span)

    def durations(self, name: str, exclude_path: str = "") -> List[float]:
        """Wall times of ``name`` spans, in the order they ended."""
        rows = self.spans.get(name, ())
        return [wall for wall, _, attrs in rows
                if not exclude_path
                or not str(attrs.get("path", "")).startswith(exclude_path)]

    def cpu(self, name: str) -> List[float]:
        """Thread CPU times of ``name`` spans, in the order they ended."""
        return [cpu for _, cpu, _ in self.spans.get(name, ())]


class CallTimer:
    """Wall time and self CPU time of the wrapped public functions."""

    def __init__(self) -> None:
        #: layer -> [(wall, self cpu)]
        self.calls: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        #: layer -> counter name -> total, from the calls' return values
        self.counts: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.frozen = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: List[Tuple[type, str, Callable]] = []

    def _wrap(self, layer: str, fn: Callable, extract) -> Callable:
        timer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(timer._local, "stack", None)
            if stack is None:
                stack = timer._local.stack = []
            stack.append(0.0)
            started = time.perf_counter()
            started_cpu = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - started
                cpu = time.thread_time() - started_cpu
                nested = stack.pop()
                if stack:
                    stack[-1] += cpu
            if not timer.frozen:
                timer.calls[layer].append((wall, cpu - nested))
                if extract is not None:
                    counts = extract(result)
                    with timer._lock:
                        totals = timer.counts[layer]
                        for key, value in counts.items():
                            totals[key] += value
            return result

        return wrapper

    def install(self) -> "CallTimer":
        for layer, owner, name, extract in WRAPPED:
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original, extract))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def wall(self, layer: str) -> List[float]:
        return [wall for wall, _ in self.calls.get(layer, ())]

    def self_cpu(self, layer: str) -> float:
        return sum(own for _, own in self.calls.get(layer, ()))


class Probe:
    """Tracer + span store + wrappers for one traced round."""

    def __init__(self) -> None:
        self.store = LayerStore()
        self.tracer = Tracer(sample_rate=1.0, store=self.store)
        self.timer = CallTimer().install()
        self.freeze()  # setup is not attributed

    def start(self) -> None:
        """Attribute spans and calls from now on."""
        self.store.frozen = False
        self.timer.frozen = False

    def freeze(self) -> None:
        """Stop attributing: later calls are the benchmark's own checks."""
        self.store.frozen = True
        self.timer.frozen = True

    def close(self) -> None:
        self.freeze()
        self.timer.uninstall()


def _p(values: List[float], q: float, scale: float = 1.0) -> float:
    return percentile(values, q) * scale if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(probe: Probe, runtime, ingest_wall_s: float, sent: int,
                  identify: Dict[str, int], published: int
                  ) -> Dict[str, float]:
    """Every per-layer metric of one traced round (0 for unused layers).

    ``ingest_wall_s`` is first offer to drain, ``sent`` the snippets or
    records sent; ``identify`` the identification counters and
    ``published`` the push events of the measured window.
    """
    spans, timer = probe.store, probe.timer
    integrate = spans.cpu("shard.integrate")
    quarter = len(integrate) // 4
    realign = spans.durations("realign")
    merge = spans.durations("shards.merge")
    refresh = spans.durations("view.refresh")
    align_counts = timer.counts.get("align", {})
    refine_counts = timer.counts.get("refine", {})
    metrics_snapshot = runtime.metrics.snapshot()

    def counter(name: str) -> float:
        return float(metrics_snapshot.get(name, {}).get("value", 0))

    hits = counter("http.cache.hits")
    misses = counter("http.cache.misses")
    identified = identify.get("snippets", 0)
    return {
        "connect.normalize.busy_s": timer.self_cpu("normalize"),
        "connect.rejected": float(
            timer.counts.get("normalize", {}).get("rejected", 0)
        ),
        "runtime.ingest.wall_s": ingest_wall_s,
        "runtime.offer.busy_s": timer.self_cpu("offer"),
        "runtime.offer.p99_us": _p(timer.wall("offer"), 99, 1e6),
        "runtime.queue.wait_p95_ms": _p(spans.durations("queue.wait"), 95, 1e3),
        "runtime.integrate.busy_s": sum(integrate),
        "runtime.integrate.q1_p50_us": _p(integrate[:quarter], 50, 1e6),
        "runtime.integrate.q4_p50_us": _p(
            integrate[len(integrate) - quarter:] if quarter else [], 50, 1e6
        ),
        "identify.comparisons_per_snippet": _ratio(
            identify.get("comparisons", 0), identified
        ),
        "identify.candidates_per_snippet": _ratio(
            identify.get("candidates", 0), identified
        ),
        "identify.merges": float(identify.get("merges", 0)),
        "identify.splits": float(identify.get("splits", 0)),
        "runtime.wal.append.busy_s": sum(spans.cpu("wal.append")),
        "runtime.wal.bytes": counter("wal.bytes"),
        "runtime.realign.count": float(len(realign)),
        "runtime.realign.busy_s": sum(spans.cpu("realign")),
        "runtime.realign.max_s": max(realign, default=0.0),
        "runtime.merge.busy_s": sum(spans.cpu("shards.merge")),
        "runtime.merge.max_ms": max(merge, default=0.0) * 1e3,
        "align.calls": float(len(timer.calls.get("align", ()))),
        "align.self_s": timer.self_cpu("align"),
        "align.story_pairs_scored": float(
            align_counts.get("story_pairs_scored", 0)
        ),
        "align.edges": float(align_counts.get("edges", 0)),
        "align.pair_yield": _ratio(
            align_counts.get("edges", 0),
            align_counts.get("story_pairs_scored", 0),
        ),
        "align.snippet_pairs_scored": float(
            align_counts.get("snippet_pairs_scored", 0)
        ),
        "refine.self_s": timer.self_cpu("refine"),
        "refine.rounds": float(refine_counts.get("rounds", 0)),
        "refine.moves": float(refine_counts.get("moves", 0)),
        "refine.conflicts_checked": float(
            refine_counts.get("conflicts_checked", 0)
        ),
        "refine.move_yield": _ratio(
            refine_counts.get("moves", 0),
            refine_counts.get("conflicts_checked", 0),
        ),
        "view.refresh.count": float(len(refresh)),
        "view.refresh.busy_s": sum(spans.cpu("view.refresh")),
        "view.refresh.p50_s": _p(refresh, 50),
        "view.refresh.first_s": refresh[0] if refresh else 0.0,
        "view.refresh.last_s": refresh[-1] if refresh else 0.0,
        "view.install.busy_s": timer.self_cpu("install"),
        "http.server_p95_ms": _p(
            spans.durations("http.request", exclude_path="/subscribez"),
            95, 1e3,
        ),
        "http.cache_hit_ratio": _ratio(hits, hits + misses),
        "push.publish.busy_s": sum(spans.cpu("push.publish")),
        "push.events_per_snippet": _ratio(published, sent),
        "push.dropped": counter("push.dropped"),
    }
