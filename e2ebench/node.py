"""The system under test, in a process of its own.

    python3 e2ebench/node.py realign|live INPUT RESULT WORKDIR [--trace]

Builds the assembly the workload's CLI builds (``storypivot-serve`` for
``realign``, ``storypivot-api --follow --source`` for ``live``) and runs
it, while the load generator, the HTTP reader and the SSE subscriber run
in the benchmark process (``workloads.py``).  The two talk over this
process's standard streams, one JSON value per line:

* stdout carries only protocol lines, ``<word> <json>``: ``ready``
  (set-up done, with the API port), then the workload's own (see
  :func:`run_realign` and :func:`run_live`), and ``done`` once RESULT
  is written;
* stdin carries the benchmark's commands (``"go"``, ``"finish"``) and,
  on ``live``, the wire records themselves, ended by ``null``.

INPUT is a pickle of the workload's input snippets and settings
(``Workload.inputs`` in ``workloads.py``), RESULT the pickle
this process writes back: samples, the final state's digest and
clusters, accounting and, with ``--trace``, the per-layer metrics.
Times are ``time.perf_counter()``, the system-wide monotonic clock, so
they compare with the benchmark process's.

Besides the optional tracing :class:`layers.Probe`, two hooks run in
here, both as cheap as the program's own bookkeeping: a ``DecisionLog``
listener and a wrapper on ``ShardedRuntime.realign`` that note when a
snippet is decided and when an alignment is published (``realign``),
and a wrapper on ``ViewStore.install`` that notes each installed
view's per-source snippet counts (``live``).
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.connect import ConnectorStream, source_corpus_shell  # noqa: E402
from repro.connect.base import RawItem, SourceConnector  # noqa: E402
from repro.core.config import StoryPivotConfig  # noqa: E402
from repro.obs import SpanStore, Tracer  # noqa: E402
from repro.push import EventBus  # noqa: E402
from repro.runtime.runtime import RuntimeOptions, ShardedRuntime  # noqa: E402
from repro.server.app import StoryPivotAPI  # noqa: E402
from repro.server.views import ViewRefresher, ViewStore  # noqa: E402

import checks  # noqa: E402
from layers import Probe, layer_metrics  # noqa: E402

def say(word: str, payload=None) -> None:
    sys.stdout.write(f"{word} {json.dumps(payload)}\n")
    sys.stdout.flush()


def command() -> object:
    line = sys.stdin.buffer.readline()
    if not line:
        raise SystemExit("benchmark closed the command stream")
    return json.loads(line)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def identify_totals(runtime) -> Counter:
    """Summed identification counters of the runtime's shard pivots."""
    totals: Counter = Counter()
    for shard in runtime._shards:
        pivot = shard.pivot
        for source_id in pivot.source_ids:
            totals.update(pivot.identifier(source_id).stats.snapshot())
    return totals


def account(runtime, pulled: int, deduplicated: int = 0) -> Counter:
    """Chaos accounting plus per-snippet failure counts.

    ``deduplicated`` admission rejections are the gauntlet collapsing
    near-duplicate content, the admission-side twin of the runtime's
    duplicate count, so they are not failures.
    """
    failures: Counter = Counter()
    stats = runtime.stats()
    accounted = (
        stats["accepted"] + stats["duplicates"] + stats["dropped"]
        + stats["quarantined"]
    )
    if pulled != stats["arrived"] + stats["rejected"] or (
        accounted != stats["arrived"]
    ):
        failures["accounting"] += 1
    stats["rejected"] -= deduplicated
    for key in ("dropped", "quarantined", "rejected"):
        if stats[key]:
            failures[key] += stats[key]
    return failures


class Recording:
    """Identification and push counters over the measured window."""

    def __init__(self, probe, runtime, bus=None) -> None:
        self.probe, self.runtime, self.bus = probe, runtime, bus
        if probe is not None:
            probe.start()
        self.published = bus.published if bus is not None else 0
        self.identified = identify_totals(runtime)
        self.cpu = time.process_time()

    def stop(self, ingest_wall_s: float, sent: int):
        """(process CPU seconds, layer metrics or None) since the start."""
        cpu = time.process_time() - self.cpu
        if self.probe is None:
            return cpu, None
        self.probe.freeze()
        identified = identify_totals(self.runtime)
        identified.subtract(self.identified)
        published = self.bus.published if self.bus is not None else 0
        return cpu, layer_metrics(
            self.probe, self.runtime, ingest_wall_s, sent, identified,
            published - self.published,
        )


def final_state(runtime, truth, clusters) -> Dict[str, object]:
    """Digest and quality of the runtime's final state and of the final
    global clustering ``clusters``."""
    story_sets = runtime.merged_pivot().story_sets()
    return {
        "digest": checks.digest(runtime.dumps_state()),
        "clusters": checks.cluster_set(clusters),
        "source_f1": checks.source_f1(story_sets, truth),
        "global_f1": checks.global_f1(clusters, truth),
    }


def latencies(sent_at: Dict[str, float], done_at: Dict[str, float]
              ) -> List[float]:
    return [done_at[i] - t for i, t in sent_at.items() if i in done_at]


def run_realign(inputs: dict, workdir: str, probe) -> dict:
    """``storypivot-serve`` defaults plus the WAL, with the API in front
    for the benchmark's reads.

    One producer in a closed loop: it offers the next snippet once the
    runtime has drained the previous one.  A periodic cycle then starts
    within a snippet or two of each ``realign_every`` boundary, so every
    run aligns the same states; a producer that keeps the shard queues
    full lets the realigner take the four shard locks behind busy shards,
    and how much of the input each cycle covers varies from run to run.

    Protocol: ``ready`` → ``"go"`` → ingest and drain → ``closing``,
    then the closing ``realign()`` → ``closed`` → ``"finish"`` →
    result.  The benchmark reads ``/`` between ``closing`` and
    ``closed``.
    """
    snippets = inputs["snippets"]
    tracer = probe.tracer if probe is not None else None
    wal_dir = tempfile.mkdtemp(prefix="wal-", dir=workdir)
    published: List[tuple] = []
    original = ShardedRuntime.realign

    @functools.wraps(original)
    def realign(self):
        alignment = original(self)
        published.append((time.perf_counter(), alignment))
        return alignment

    ShardedRuntime.realign = realign
    try:
        runtime = ShardedRuntime(
            StoryPivotConfig(),
            RuntimeOptions(num_shards=inputs["shards"], wal_dir=wal_dir,
                           realign_every=inputs["realign_every"]),
            tracer=tracer,
        ).start()
        decided: Dict[str, float] = {}

        def on_decision(entry: dict) -> None:
            snippet_id = entry.get("snippet_id")
            if snippet_id is not None and entry["event"] in (
                "created", "extended"
            ):
                decided.setdefault(snippet_id, time.perf_counter())

        runtime.decisions.add_listener(on_decision)
        api = StoryPivotAPI(
            ViewStore(inputs["name"]), port=0, metrics=runtime.metrics,
            runtime=runtime, tracer=tracer,
        ).start()
        try:
            say("ready", {"port": api.port})
            command()  # go
            sent_at: Dict[str, float] = {}
            recording = Recording(probe, runtime)
            started = time.perf_counter()
            for snippet in snippets:
                sent_at[snippet.snippet_id] = time.perf_counter()
                runtime.offer(snippet)
                runtime.drain()
            elapsed = time.perf_counter() - started
            cpu, layers = recording.stop(elapsed, len(sent_at))
            say("closing")
            runtime.realign()
            say("closed")
            command()  # finish
            rss = peak_rss_mb()
            # stop() joins the realign thread, so no cycle lands after this
            runtime.stop()
            visible: Dict[str, float] = {}
            for seen, alignment in published:
                # an Alignment holds the live Story objects, which shards
                # keep extending; its role table is the snapshot taken
                # under the shard locks, one entry per snippet it covered
                for snippet_id in alignment.roles:
                    visible.setdefault(snippet_id, seen)
            result = {
                "ingest_sps": runtime.accepted / elapsed,
                "sent": len(sent_at),
                "push": latencies(sent_at, decided),
                "visible": latencies(sent_at, visible),
                "cpu_per_unit": cpu / len(sent_at),
                "layers": layers,
                "peak_rss_mb": rss,
                "failures": account(runtime, len(sent_at)),
            }
            result.update(final_state(
                runtime, inputs["truth"],
                runtime.live_alignment.as_clusters(),
            ))
            return result
        finally:
            api.close()
            runtime.stop()
    finally:
        ShardedRuntime.realign = original
        shutil.rmtree(wal_dir, ignore_errors=True)


class PipeConnector(SourceConnector):
    """Wire records from this process's stdin, one JSON object a line,
    ended by ``null``: the benchmark sends each on its schedule."""

    scheme = "pipe"

    def __init__(self, stream) -> None:
        super().__init__("stdin")
        self.stream = stream
        self.pulled = 0
        #: when the first record arrived
        self.first_at = 0.0

    def pull(self):
        for line in iter(self.stream.readline, b""):
            fields = json.loads(line)
            if fields is None:
                return
            if not self.pulled:
                self.first_at = time.perf_counter()
            self.pulled += 1
            yield RawItem(self.scheme, self.pulled - 1, fields)


def run_live(inputs: dict, workdir: str, probe) -> dict:
    """``storypivot-api --follow --source`` defaults, open loop.

    Protocol: preload and first refresh → ``ready`` → wire records on
    stdin, ended by ``null`` → drain → ``settled`` once a view holds
    every accepted snippet → ``"finish"`` → result (closing the API
    says goodbye to the benchmark's subscriber).
    """
    preload = inputs["preload"]
    tracer = probe.tracer if probe is not None else None
    if tracer is None:  # the CLI's default: roots only, nothing kept
        tracer = Tracer(sample_rate=0.0, store=SpanStore())
    installs: List[tuple] = []
    original = ViewStore.install

    @functools.wraps(original)
    def install(self, *args, **kwargs):
        view = original(self, *args, **kwargs)
        installs.append((view.generation, {
            row["id"]: row["num_snippets"] for row in view.sources
        }))
        return view

    ViewStore.install = install
    connector = PipeConnector(sys.stdin.buffer)
    runtime = ShardedRuntime(
        StoryPivotConfig(), RuntimeOptions(num_shards=inputs["shards"]),
        tracer=tracer,
    ).start()
    refresher = api = None
    try:
        bus = EventBus(
            replay_capacity=4096, queue_capacity=256, policy="drop",
            metrics=runtime.metrics, tracer=tracer,
        ).attach(runtime.decisions)
        store = ViewStore(inputs["name"])
        refresher = ViewRefresher(
            runtime, store, interval=inputs["refresh_interval"],
            corpus=source_corpus_shell("pipe:stdin", connector),
            metrics=runtime.metrics, tracer=tracer,
            decisions=runtime.decisions, bus=bus,
        )
        api = StoryPivotAPI(
            store, port=0, metrics=runtime.metrics, cache_entries=512,
            refresher=refresher, runtime=runtime, tracer=tracer,
            decisions=runtime.decisions, bus=bus,
        ).start()
        for snippet in preload:
            runtime.offer(snippet)
        runtime.drain()
        refresher.refresh(force=True)
        refresher.start()
        say("ready", {"port": api.port})

        stream = ConnectorStream(connector, runtime=runtime)
        admitted = []

        def collect():
            for snippet in stream:
                admitted.append(snippet)
                yield snippet

        recording = Recording(probe, runtime, bus)
        generation = store.generation
        runtime.consume(collect())
        runtime.drain()
        drained_at = time.perf_counter()
        deadline = drained_at + inputs["settle_s"]
        while (store.current().stats["num_snippets"] != runtime.accepted
               and time.perf_counter() < deadline):
            time.sleep(0.05)
        say("settled", {"generation": store.generation,
                        "admitted": [s.snippet_id for s in admitted]})
        command()  # finish
        # refreshes dominate the CPU here, and how many fit in the window
        # varies, so the unit of work is one installed view
        cpu, layers = recording.stop(
            drained_at - connector.first_at, connector.pulled
        )
        rss = peak_rss_mb()
        refresher.stop()
        # the check compares the final served view; refresh once more only
        # when the last automatic refresh missed some accepted snippet
        view = store.current()
        if view.stats["num_snippets"] != runtime.accepted:
            view = refresher.refresh(force=True)
        deduplicated = stream.normalizer.counts()["rejected"].get(
            "near_duplicate", 0
        )
        failures = account(
            runtime, len(preload) + connector.pulled, deduplicated
        )
        failures["push_dropped"] += int(
            runtime.metrics.snapshot()["push.dropped"]["value"]
        )
        result = {
            "drained_at": drained_at,
            "admitted": preload + admitted,
            "installs": installs,
            "cpu_per_unit": cpu / max(1, store.generation - generation),
            "layers": layers,
            "peak_rss_mb": rss,
            "failures": failures,
        }
        result.update(final_state(
            runtime, inputs["truth"], view.alignment.as_clusters()
        ))
        return result
    finally:
        if refresher is not None:
            refresher.stop()
        if api is not None:
            api.close()  # says goodbye to the subscriber
        runtime.stop()
        ViewStore.install = original


WORKLOADS = {"realign": run_realign, "live": run_live}


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    traced = "--trace" in args
    if traced:
        args.remove("--trace")
    workload, input_path, result_path, workdir = args
    with open(input_path, "rb") as f:
        inputs = pickle.load(f)
    probe = Probe() if traced else None
    try:
        result = WORKLOADS[workload](inputs, workdir, probe)
    finally:
        if probe is not None:
            probe.close()
    with open(result_path, "wb") as f:
        pickle.dump(result, f)
    say("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
