"""The two workloads: ``realign`` and ``live``.

Each round starts the system under test in a process of its own
(``node.py``, the assembly the workload's CLI builds) and drives it from
this process: the load generator, the HTTP reader and the SSE subscriber
below are the only client code, and none of it shares the program's
interpreter.  A round returns one :class:`Round` of raw samples.  Why
each workload exists, and which layer metric should move which
end-to-end metric on it, is in README.md next to this file.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional
from urllib.parse import quote

from repro.core.config import StoryPivotConfig

import checks
from load import (
    ReadMix,
    Reader,
    Subscriber,
    make_corpus,
    raw_fields,
    reads_until,
    sleep_until,
)

HERE = os.path.dirname(os.path.abspath(__file__))
NODE = os.path.join(HERE, "node.py")

#: how long any one step of the node may take before the round fails
NODE_TIMEOUT = 150.0

#: realign's reader waits this long after each answer before its next
#: read of the API index.  In a closed loop a pause of the node delays
#: one read, not every read scheduled during it, and on a slow host no
#: answer queues behind another (at 50 reads/s on a schedule they did).
REALIGN_THINK_S = 0.01

#: the live subscriber's queue (the server default is 256).  Every view
#: refresh re-announces each story under a fresh aligned id, a burst of
#: hundreds of events; a 256-event queue drops part of each burst, which
#: would leave push and visibility unmeasurable.  The burst still shows
#: in push_p95_ms and push.events_per_snippet.
SUBSCRIBER_CAPACITY = 8192


@dataclass
class Round:
    """Raw samples of one measured round (times in seconds)."""

    setup_s: float
    ingest_sps: float = 0.0
    push: List[float] = field(default_factory=list)
    visible: List[float] = field(default_factory=list)
    reads: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    sent: int = 0
    read_attempts: int = 0
    failures: Counter = field(default_factory=Counter)
    #: the node's CPU seconds per unit of work (a snippet; on live, a
    #: view refresh), traced vs untraced gives ``bench.trace_overhead``
    cpu_per_unit: float = 0.0
    digest: str = ""
    #: the round's final integrated stories, checked against the reference
    clusters: Optional[checks.Clusters] = None
    #: the snippets the round admitted, in offer order (the reference's
    #: input)
    admitted: Optional[list] = None
    source_f1: float = 0.0
    global_f1: float = 0.0
    peak_rss_mb: float = 0.0
    layers: Optional[Dict[str, float]] = None

    def adopt(self, out: dict) -> None:
        """Take the node's own measurements and final state."""
        for name in ("cpu_per_unit", "digest", "clusters", "source_f1",
                     "global_f1", "peak_rss_mb", "layers"):
            setattr(self, name, out[name])
        self.failures.update(out["failures"])


#: the CPUs this process may use when the run starts
CPUS = sorted(os.sched_getaffinity(0))


def split_cpus(turn: int):
    """(benchmark CPUs, node CPUs) for a run's ``turn``-th world.

    With two or more CPUs the node gets one of its own, a different one
    turn by turn, and this process the rest.  The node's threads take
    turns on one interpreter lock anyway; on one CPU their hand-offs do
    not wait for the host to schedule a second virtual CPU, nor compete
    with the load generator.  Taking the CPUs in turn spreads a run over
    all of them, each of which the host may slow down for minutes at a
    time.  With one CPU both processes share it.
    """
    if len(CPUS) < 2:
        return set(CPUS), set(CPUS)
    node = CPUS[turn % len(CPUS)]
    return set(CPUS) - {node}, {node}


class Node:
    """One run of ``node.py``: the system under test, in its own process."""

    def __init__(self, workload: str, inputs: dict, workdir: str,
                 traced: bool, cpus=None) -> None:
        self.dir = tempfile.mkdtemp(prefix="node-", dir=workdir)
        input_path = os.path.join(self.dir, "input.pickle")
        self.result_path = os.path.join(self.dir, "result.pickle")
        with open(input_path, "wb") as f:
            pickle.dump(inputs, f)
        self.proc = subprocess.Popen(
            [sys.executable, NODE, workload, input_path, self.result_path,
             self.dir] + (["--trace"] if traced else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        if cpus is not None:
            # before the node's first thread starts, which inherits it
            os.sched_setaffinity(self.proc.pid, cpus)
        self._pending = b""

    def send(self, value) -> None:
        self.proc.stdin.write(json.dumps(value).encode("utf-8") + b"\n")
        self.proc.stdin.flush()

    def expect(self, word: str):
        """Wait for the node's next line, which must be ``word``; returns
        its payload."""
        deadline = time.monotonic() + NODE_TIMEOUT
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"node sent no {word!r} in {NODE_TIMEOUT}s")
            if select.select([fd], [], [], remaining)[0]:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"node exited with {self.proc.wait()} before {word!r}"
                    )
                self._pending += chunk
        line, self._pending = self._pending.split(b"\n", 1)
        said, _, payload = line.decode("utf-8").partition(" ")
        if said != word:
            raise RuntimeError(f"node said {line!r}, expected {word!r}")
        return json.loads(payload)

    def result(self) -> dict:
        self.expect("done")
        self.proc.wait(NODE_TIMEOUT)
        with open(self.result_path, "rb") as f:
            return pickle.load(f)

    def close(self) -> None:
        """Stop the node if it still runs, wait for it, remove its files."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def latencies(sent_at: Dict[str, float], done_at: Dict[str, float],
              ids) -> List[float]:
    return [done_at[i] - sent_at[i] for i in ids if i in done_at]


class Workload:
    """Set up, measure and tear down one round of a workload."""

    name = ""
    #: a round's input: the first ``size`` snippets, in publication order,
    #: of a synthetic world of ``events`` events.  A prefix of a large
    #: world has the same size for every seed and averages over many
    #: concurrent stories; each round of a run takes another world (see
    #: :meth:`world_seed`), so a run's medians average over several.
    events = 2000
    size = 0
    #: nominal length of a round with its set-up and check, in seconds: a
    #: run makes ``--seconds / round_s`` rounds
    round_s = 15.0
    #: measured rounds a run makes at least, however short --seconds is
    min_rounds = 1
    #: the samples (``push``, ``visible``, ``reads``) whose percentiles are
    #: taken over all rounds pooled, not per round
    pooled: tuple = ()

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.node: Optional[Node] = None

    # -- subclass hooks ------------------------------------------------------

    def inputs(self, corpus) -> dict:
        """What the node gets; also keeps what this side needs."""
        raise NotImplementedError

    def connect(self, ready: dict) -> None:
        """Client set-up once the node is ready."""

    def measure(self, result: Round) -> None:
        raise NotImplementedError

    def disconnect(self) -> None:
        """Client teardown, after the node has stopped."""

    def check(self, reference: checks.Reference, result: Round) -> List[str]:
        """Mismatches between one round and the reference."""
        problems = []
        if result.digest != reference.digest:
            problems.append("identification state differs from reference")
        return problems

    # -- rounds --------------------------------------------------------------

    def world_seed(self, world: int) -> int:
        """The generator seed of the run's ``world``-th world."""
        return self.seed * 1000 + world

    def run_round(self, world: int, traced: bool = False,
                  measure: bool = True) -> Round:
        """One round on the run's ``world``-th world: timed setup, then
        (optionally) the measurement."""
        started = time.perf_counter()
        bench_cpus, node_cpus = split_cpus(world)
        # client threads started from here on inherit this thread's CPUs
        os.sched_setaffinity(0, bench_cpus)
        corpus = make_corpus(self.events, self.world_seed(world))
        self.node = Node(self.name, self.inputs(corpus), self.workdir, traced,
                         node_cpus)
        del corpus
        try:
            self.connect(self.node.expect("ready"))
            result = Round(setup_s=time.perf_counter() - started)
            if measure:
                self.measure(result)
        finally:
            self.node.close()
            self.disconnect()
            # the next round must not pay for collecting this one's cycles
            gc.collect()
        return result

    def reference(self, result: Round) -> checks.Reference:
        return checks.Reference(StoryPivotConfig(), result.admitted)


def _truth(corpus, snippets) -> Dict[str, str]:
    labels = corpus.truth.labels
    return {s.snippet_id: labels[s.snippet_id] for s in snippets
            if s.snippet_id in labels}


class Realign(Workload):
    """``storypivot-serve`` defaults plus WAL: ingest with alignment on.

    One producer in the node offers snippets directly through
    ``runtime.offer`` in a closed loop, the next once the runtime has
    drained the previous one, into 4 shards with the WAL on and a
    stop-the-world cross-shard alignment every 500 accepted snippets; a
    closing cycle after drain covers the tail.

    While the closing cycle runs, this process reads the API index ``/``
    over one keep-alive connection in a closed loop: how responsive the
    node stays while a cycle holds its interpreter.  The index is the
    cheapest answer the server gives, so its latency is the wait for the
    interpreter.  Reads during ingest would compete with the producer
    and the shard for the interpreter and move the ingest figures.
    """

    name = "realign"
    #: not a multiple of realign_every: the last periodic cycle runs during
    #: ingest, and the final cycle covers the tail after it
    size = 2800
    shards = 4
    realign_every = 500
    #: a round has about 150 reads, few for a steady tail percentile
    pooled = ("reads",)
    #: alignment cost varies across worlds (by about 0.08 of its mean) and
    #: the host's speed drifts; four worlds a run average both
    min_rounds = 4

    def inputs(self, corpus) -> dict:
        self.snippets = corpus.snippets_by_publication()[:self.size]
        return {"name": corpus.name, "snippets": self.snippets,
                "truth": _truth(corpus, self.snippets),
                "shards": self.shards, "realign_every": self.realign_every}

    def connect(self, ready: dict) -> None:
        self.port = ready["port"]

    def measure(self, result: Round) -> None:
        self.node.send("go")
        self.node.expect("closing")
        reader = Reader(self.port)
        failed_reads: List[int] = []
        closed = threading.Event()
        reads = threading.Thread(
            target=lambda: failed_reads.append(reads_until(
                ReadMix(reader, ["/"]), REALIGN_THINK_S, closed,
                result.reads, result.lateness,
            )),
            name="e2ebench-reader", daemon=True,
        )
        reads.start()
        try:
            self.node.expect("closed")
        finally:
            closed.set()
            reads.join(30.0)
            reader.close()
        self.node.send("finish")
        out = self.node.result()
        result.adopt(out)
        result.failures["read_errors"] += sum(failed_reads)
        result.read_attempts = len(result.reads)
        result.ingest_sps = out["ingest_sps"]
        result.sent = out["sent"]
        result.push = out["push"]
        result.visible = out["visible"]
        result.failures["never_decided"] += result.sent - len(result.push)
        result.failures["never_visible"] += result.sent - len(result.visible)
        result.admitted = self.snippets

    def check(self, reference: checks.Reference, result: Round) -> List[str]:
        problems = super().check(reference, result)
        if result.clusters != reference.aligned:
            problems.append("final live_alignment differs from reference")
        return problems


class Live(Workload):
    """``storypivot-api --follow --source`` under an open-loop trickle.

    Part of the input is preloaded and served during set-up; the rest goes
    to the node as raw wire records at :attr:`rate` records/s, which its
    connector pulls through the gauntlet (``ConnectorStream``:
    ``Normalizer.normalize`` then ``ShardedRuntime.offer``).  The thread
    that sends the records also issues GETs at :attr:`read_rate`/s over
    one keep-alive connection; a second thread reads one
    ``/subscribez`` stream.
    """

    name = "live"
    #: a refresh's cost, and so visibility, depends mostly on the state
    #: it refreshes: refinement runs one, two or three rounds, and which
    #: flips from one state to the next.  Larger states vary less (CPU of
    #: one refresh, coefficient of variation across ten worlds: 0.55 at
    #: 400 snippets, 0.20 at 800, 0.18 at 1,000), so each round serves
    #: 800 snippets before it sends 200 more, and each round takes its own
    #: world.  Visibility per round then varies by about 0.15 of its mean
    #: across worlds, against 0.34 with 200 preloaded.
    events = 4000
    #: 800 snippets preloaded, then 200 wire records
    size = 1000
    preload = 800
    min_rounds = 3
    #: a refresh of these states takes about 2.5 s, so a round is about
    #: 18 s with its set-up and check
    round_s = 18.0
    #: a round has about 200 reads and 200 pushes, too few for a steady
    #: tail percentile on its own
    pooled = ("push", "visible", "reads")
    rate = 40.0
    #: 600 reads a run for the pooled tail percentile
    read_rate = 40.0
    shards = 2
    #: ``--refresh-interval``: 0.1 s keeps a refresh running nearly all the
    #: time, so push and read latency sit in the busy regime (about one
    #: interpreter switch interval) in every run; at the CLI's 1.0 s
    #: default, and at 0.5 s on these small states, their medians flipped
    #: between that and the idle regime (1-3 ms) from run to run
    refresh_interval = 0.1
    #: how long to wait, after the last record, for a view with every
    #: accepted snippet, and then for the last push and view to arrive
    settle_s = 30.0

    subscriber: Optional[Subscriber] = None

    def inputs(self, corpus) -> dict:
        snippets = corpus.snippets_by_publication()[:self.size]
        truth = _truth(corpus, snippets)
        self.records = [raw_fields(s, truth.get(s.snippet_id))
                        for s in snippets[self.preload:]]
        keywords = Counter(k for s in snippets for k in s.keywords)
        query = quote(keywords.most_common(1)[0][0])
        self.paths = ["/stories", "/stories/{id}", "/stats", "/sources",
                      f"/query?q={query}"]
        return {"name": corpus.name, "preload": snippets[:self.preload],
                "truth": truth, "shards": self.shards,
                "refresh_interval": self.refresh_interval,
                "settle_s": self.settle_s}

    def connect(self, ready: dict) -> None:
        self.port = ready["port"]
        self.subscriber = Subscriber(
            self.port, query=f"?capacity={SUBSCRIBER_CAPACITY}"
        ).start()

    def disconnect(self) -> None:
        if self.subscriber is not None:
            self.subscriber.join()
            self.subscriber = None

    def _send(self, result: Round, reader: Reader) -> Dict[str, float]:
        """Send every record and issue every read on schedule; returns
        each record's scheduled time by snippet id."""
        sent_at: Dict[str, float] = {}
        mix = ReadMix(reader, self.paths)
        start = time.perf_counter() + 0.05
        end = start + (len(self.records) - 1) / self.rate
        schedule = [(start + i / self.rate, 1, record)
                    for i, record in enumerate(self.records)]
        schedule += [(start + j / self.read_rate, 0, None)
                     for j in range(int((end - start) * self.read_rate) + 1)]
        schedule.sort(key=lambda item: item[:2])
        for due, is_record, record in schedule:
            result.lateness.append(sleep_until(due))
            if is_record:
                self.node.send(record)
                sent_at[record["id"]] = due
            else:
                if not mix.read_one():
                    result.failures["read_errors"] += 1
                result.reads.append(time.perf_counter() - due)
        self.node.send(None)
        self.start = start
        return sent_at

    def measure(self, result: Round) -> None:
        reader = Reader(self.port)
        try:
            sent_at = self._send(result, reader)
        finally:
            reader.close()
        settled = self.node.expect("settled")
        admitted = settled["admitted"]
        deadline = time.perf_counter() + self.settle_s
        subscriber = self.subscriber
        while time.perf_counter() < deadline and (
            settled["generation"] not in subscriber.generations
            or not subscriber.pushed.keys() >= set(admitted)
        ):
            time.sleep(0.05)
        self.node.send("finish")
        out = self.node.result()
        result.adopt(out)
        self.disconnect()
        result.sent = len(sent_at)
        result.read_attempts = len(result.reads)
        result.ingest_sps = len(admitted) / (out["drained_at"] - self.start)
        result.push = latencies(sent_at, subscriber.pushed, admitted)
        result.visible = latencies(
            sent_at, self._visible(out, subscriber.generations), admitted
        )
        result.failures["never_pushed"] += len(admitted) - len(result.push)
        result.failures["never_visible"] += (
            len(admitted) - len(result.visible)
        )
        if subscriber.ended != "goodbye" or subscriber.error:
            result.failures["stream_ended_early"] += 1
        result.failures["push_gaps"] += subscriber.gaps()
        result.admitted = out["admitted"]

    @staticmethod
    def _visible(out: dict, received: Dict[int, float]) -> Dict[str, float]:
        """When each snippet first showed, by snippet id.

        A source's snippets are identified in offer order on one shard,
        so a view with ``n`` snippets of a source holds that source's
        first ``n``; a snippet is visible at the arrival of the
        ``generation`` event of the first such view.
        """
        by_source = defaultdict(list)
        for snippet in out["admitted"]:
            by_source[snippet.source_id].append(snippet.snippet_id)
        shown = dict.fromkeys(by_source, 0)
        visible: Dict[str, float] = {}
        for generation, counts in sorted(out["installs"]):
            at = received.get(generation)
            if at is None:
                continue  # announced by a later view's event
            for source_id, count in counts.items():
                ids = by_source.get(source_id, ())
                for snippet_id in ids[shown.get(source_id, 0):count]:
                    visible[snippet_id] = at
                shown[source_id] = max(shown.get(source_id, 0), count)
        return visible

    def check(self, reference: checks.Reference, result: Round) -> List[str]:
        problems = super().check(reference, result)
        if result.clusters != reference.finished:
            problems.append("final served view differs from reference")
        return problems


WORKLOADS = {cls.name: cls for cls in (Realign, Live)}
