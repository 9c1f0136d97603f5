"""Reference computations the benchmark checks the program against.

The reference is a single-process :class:`StoryPivot` fed the same
admitted snippets in the same order.  Identification is per source, so a
sharded runtime that routes each source to one shard in offer order must
reach exactly the reference's state; alignment and refinement over that
state must then give the reference's integrated stories.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
from typing import Dict, FrozenSet, Iterable, Mapping, Set

from repro.core.alignment import StoryAligner
from repro.core.persistence import dumps_state
from repro.core.pipeline import StoryPivot
from repro.evaluation.metrics import pairwise_scores

Clusters = FrozenSet[FrozenSet[str]]


def digest(state_text: str) -> str:
    return hashlib.sha256(state_text.encode("utf-8")).hexdigest()


def cluster_set(clusters: Mapping[str, Set[str]]) -> Clusters:
    """Clusters as a set of member sets: ids drop out of the comparison
    (aligned ids come from a process-global counter)."""
    return frozenset(frozenset(members) for members in clusters.values())


def source_f1(story_sets, truth: Mapping[str, str]) -> float:
    """Mean per-source pairwise F of an identification state."""
    return statistics.fmean(
        pairwise_scores(story_set.as_clusters(), truth).f1
        for story_set in story_sets.values()
    )


def global_f1(clusters: Mapping[str, Set[str]], truth) -> float:
    return pairwise_scores(clusters, truth).f1


class Reference:
    """Single-process identification over the admitted snippets."""

    def __init__(self, config, snippets: Iterable) -> None:
        self.pivot = StoryPivot(config)
        for snippet in snippets:
            self.pivot.add_snippet(snippet)
        self.digest = digest(dumps_state(self.pivot, canonical_ids=True))

    @functools.cached_property
    def aligned(self) -> Clusters:
        """Plain alignment of the reference state (what ``realign`` does)."""
        alignment = StoryAligner(self.pivot.config).align(
            self.pivot.story_sets()
        )
        return cluster_set(alignment.as_clusters())

    @functools.cached_property
    def finished(self) -> Clusters:
        """Alignment plus refinement (what a view refresh serves).

        Refinement moves snippets between the reference's stories in
        place; :attr:`digest` was taken before, in ``__init__``.
        """
        return cluster_set(self.pivot.finish().alignment.as_clusters())
