"""Load generation: wire records, the HTTP reader and the SSE subscriber.

Everything here is client side and runs in the benchmark process; the
program under test runs in its own (``node.py``) and only ever sees
what these helpers send it: wire records and HTTP requests.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.eventdata.sourcegen import synthetic_corpus

NUM_SOURCES = 8


def make_corpus(events: int, seed: int):
    """The benchmark input: a labelled synthetic world, publication order."""
    return synthetic_corpus(
        total_events=events, num_sources=NUM_SOURCES, seed=seed
    )


def raw_fields(snippet, label) -> Dict[str, object]:
    """The connector-shaped dict a clean upstream sends for ``snippet``.

    Same shape as ``benchmarks/bench_connect.py`` uses, so the live
    workload exercises the gauntlet exactly as a ``--source`` feed does.
    """
    return {
        "id": snippet.snippet_id,
        "source": snippet.source_id,
        "timestamp": snippet.timestamp,
        "published": snippet.published,
        "description": snippet.description,
        "body": snippet.text,
        "entities": sorted(snippet.entities),
        "keywords": list(snippet.keywords),
        "event_type": snippet.event_type,
        "story_label": label,
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def sleep_until(deadline: float) -> float:
    """Sleep to ``deadline`` (perf_counter); returns how late we woke."""
    delay = deadline - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
    return max(0.0, time.perf_counter() - deadline)


class Reader:
    """One keep-alive HTTP connection issuing GETs."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def get(self, path: str):
        """(status, generation header, body bytes) of one GET."""
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        body = response.read()
        generation = response.getheader("X-StoryPivot-Generation")
        return response.status, generation, body

    def close(self) -> None:
        self.conn.close()


class ReadMix:
    """A fixed cycle of read paths; ``{id}`` resolves to a current story.

    Story ids are renamed by every view refresh, so an id taken from one
    generation may 404 in the next.  A client following links re-reads
    the list and retries; the read is timed to its final answer and
    fails only when a 404 arrives at the generation the id came from.
    """

    def __init__(self, reader: Reader, paths: Sequence[str]) -> None:
        self.reader = reader
        self.paths = list(paths)
        self.next = 0
        self._story: Optional[str] = None
        self._story_generation: Optional[str] = None

    def _resolve_story(self) -> bool:
        status, generation, body = self.reader.get("/stories?limit=1")
        if status != 200:
            return False
        stories = json.loads(body).get("stories") or []
        if not stories:
            return False
        self._story = stories[0]["id"]
        self._story_generation = generation
        return True

    def read_one(self) -> bool:
        """Issue the next read of the cycle; True on a 200."""
        path = self.paths[self.next % len(self.paths)]
        self.next += 1
        if "{id}" not in path:
            status, _, _ = self.reader.get(path)
            return status == 200
        for _ in range(3):
            if self._story is None and not self._resolve_story():
                return False
            status, generation, _ = self.reader.get(
                path.replace("{id}", self._story)
            )
            if status == 200:
                return True
            if status != 404 or generation == self._story_generation:
                return False
            self._story = None  # the view moved on: follow it
        return False


def reads_until(mix: ReadMix, think_s: float, stop: threading.Event,
                latencies: List[float], lateness: List[float]) -> int:
    """Closed-loop reads, at least one, until ``stop`` is set: each read
    is sent ``think_s`` after the previous answer and timed from when it
    was sent; ``lateness`` gets how late each think time ended.  Returns
    how many failed."""
    failed = 0
    while True:
        started = time.perf_counter()
        if not mix.read_one():
            failed += 1
        latencies.append(time.perf_counter() - started)
        if stop.is_set():
            return failed
        lateness.append(sleep_until(time.perf_counter() + think_s))


class Subscriber:
    """Reads one ``/subscribez`` SSE stream on its own thread.

    Records when each snippet's ``created``/``extended`` event and each
    ``generation`` event arrives, and keeps every event cursor so
    :meth:`gaps` can check that none is missing.
    """

    def __init__(self, port: int, query: str = "") -> None:
        self.port = port
        self.query = query
        self.pushed: Dict[str, float] = {}
        self.generations: Dict[int, float] = {}
        self.cursors: List[int] = []
        self.first_cursor = 0
        self.ended = ""
        self.error: Optional[str] = None
        self._hello = threading.Event()
        self._conn = None
        self._thread = threading.Thread(
            target=self._run, name="e2ebench-subscriber", daemon=True
        )

    def start(self, timeout: float = 30.0) -> "Subscriber":
        self._thread.start()
        if not self._hello.wait(timeout):
            raise RuntimeError(f"no SSE hello within {timeout}s: {self.error}")
        return self

    def join(self, timeout: float = 30.0) -> None:
        self._thread.join(timeout)
        if self._thread.is_alive():
            # unblock the reader: the server never said goodbye
            if self._conn is not None:
                self._conn.close()
            self._thread.join(5.0)

    def _run(self) -> None:
        try:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=60
            )
            self._conn.request("GET", "/subscribez" + self.query)
            response = self._conn.getresponse()
            if response.status != 200:
                self.error = f"HTTP {response.status}"
                return
            data = None
            for raw in response.fp:
                line = raw.rstrip(b"\r\n")
                if line.startswith(b"data: "):
                    data = line[6:]
                elif not line and data is not None:
                    if self._dispatch(json.loads(data)):
                        return
                    data = None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            self._hello.set()
            if self._conn is not None:
                self._conn.close()

    def _dispatch(self, event: dict) -> bool:
        """Handle one event; True once the stream is over."""
        received = time.perf_counter()
        kind = event.get("event")
        cursor = event.get("cursor")
        if kind == "hello":
            self.first_cursor = cursor + 1
            self._hello.set()
            return False
        if kind in ("goodbye", "reset"):
            self.ended = kind
            return True
        self.cursors.append(cursor)
        if kind == "generation":
            self.generations[event["generation"]] = received
        elif kind in ("created", "extended"):
            snippet_id = event.get("snippet_id")
            if snippet_id is not None and snippet_id not in self.pushed:
                self.pushed[snippet_id] = received
        return False

    def gaps(self) -> int:
        """Cursors missing (or repeated) between hello and the last event."""
        if not self.cursors:
            return 0
        expected = max(self.cursors) - self.first_cursor + 1
        return abs(expected - len(set(self.cursors))) + (
            len(self.cursors) - len(set(self.cursors))
        )
