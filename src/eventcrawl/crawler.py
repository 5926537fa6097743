"""Priority-driven focused crawl over the archive's link graph.

Seeds enter the frontier at maximal priority; each fetched document is
scored against the collection specification and its outgoing links are
enqueued at the linking document's strategy-dependent relevance. The
crawl stops when the frontier empties or the document budget is met.
URLs absent from the archive go to the missing set and are never
retried.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
from dataclasses import astuple, dataclass, fields
from enum import Enum
from typing import Iterable

from . import warc
from .archive import ArchiveIndex, ArchivedDocument, SnapshotRecord, fetch_document, write_csv
from .htmlscan import outlinks as _page_outlinks
from .relevance import (
    RelevanceScore,
    extract_document_time,
    temporal_relevance,
    topical_relevance,
)
from .spec import CollectionSpecification, TemporalScope, TopicalScope
from .text import (
    IdfDictionary,
    build_reference_vector,
    default_idf_dictionary,
    get_analyzer,
    vectorize,
)
from .urlnorm import canonicalize_url

__all__ = [
    "CollectionItem",
    "CrawlResult",
    "CrawlStrategy",
    "Frontier",
    "SnapshotAnalysis",
    "TopicalScorer",
    "TraceRecord",
    "extract_outlinks",
    "run_crawl",
    "select_snapshot",
]

logger = logging.getLogger(__name__)

SEED_PRIORITY = math.inf


class CrawlStrategy(Enum):
    """Frontier prioritization strategies compared in the evaluation."""

    UNFOCUSED = "unfocused"
    CONTENT_FOCUSED = "c-f"
    TIME_FOCUSED = "t-f"
    COMBINED = "ct-f"

    @classmethod
    def from_name(cls, name: str) -> "CrawlStrategy":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown strategy {name!r}; valid: {valid}") from None

    def priority_for(self, score: RelevanceScore) -> float:
        if self is CrawlStrategy.UNFOCUSED:
            return 1.0
        if self is CrawlStrategy.CONTENT_FOCUSED:
            return score.topical
        if self is CrawlStrategy.TIME_FOCUSED:
            return score.temporal
        return score.combined


class Frontier:
    """Max-priority queue of URLs with FIFO order among equal priorities.

    Each URL appears at most once. Re-adding a queued URL keeps the
    entry's original insertion sequence and raises its priority if the
    new one is higher; lower or equal rediscoveries are ignored.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, str]] = []
        # url -> (-priority, sequence), the key of its live heap entry
        self._entries: dict[str, tuple[float, int]] = {}
        self._sequence = itertools.count()

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, url: str, priority: float) -> None:
        if math.isnan(priority):
            raise ValueError("frontier priority must not be NaN")
        current = self._entries.get(url)
        if current is None:
            sequence = next(self._sequence)
        elif -priority < current[0]:
            sequence = current[1]
        else:
            return
        self._entries[url] = (-priority, sequence)
        heapq.heappush(self._heap, (-priority, sequence, url))

    def pop(self) -> tuple[str, float]:
        """Remove and return the first ``(url, priority)``."""
        while self._heap:
            neg_priority, sequence, url = heapq.heappop(self._heap)
            if self._entries.get(url) != (neg_priority, sequence):
                continue  # superseded by a priority update
            del self._entries[url]
            return url, -neg_priority
        raise IndexError("pop from an empty frontier")


def select_snapshot(
    snapshots: list[SnapshotRecord], scope: TemporalScope
) -> SnapshotRecord:
    """Choose the capture to represent a URL.

    The earliest capture inside the event interval wins; if none falls
    inside, the capture closest to the interval does, earlier captures
    breaking distance ties. Of captures at one time, the first listed
    wins. ``snapshots`` must be non-empty.
    """
    start, end = scope.start_epoch, scope.end_epoch

    def distance(snapshot: SnapshotRecord) -> float:
        t = snapshot.capture_epoch()
        return max(start - t, t - end, 0.0)

    return min(snapshots, key=lambda s: (distance(s), s.capture_time))


def extract_outlinks(document: ArchivedDocument) -> list[str]:
    """Canonical link targets of a document, first-occurrence order."""
    return _page_outlinks(document.scanned(), document.snapshot.canonical_url)


@dataclass(frozen=True)
class CollectionItem:
    snapshot: SnapshotRecord
    score: RelevanceScore
    outlinks: tuple[str, ...]


@dataclass(frozen=True)
class TraceRecord:
    step: int
    action: str  # fetch | miss | skip
    url: str
    priority: float
    snapshot_time: str = ""
    topical: float | None = None
    temporal: float | None = None
    combined: float | None = None


@dataclass
class CrawlResult:
    collection: list[CollectionItem]
    missing: set[str]
    trace: list[TraceRecord]
    queued_at_end: int

    @property
    def fetched_urls(self) -> list[str]:
        return [item.snapshot.canonical_url for item in self.collection]

    def accumulated_topical(self) -> float:
        # Left to right, as eval accumulates, the same on every Python: sum()
        # of floats compensates from 3.12 on.
        total = 0.0
        for item in self.collection:
            total += item.score.topical
        return total


class TopicalScorer:
    """Topical relevance of fetched documents to one topical scope.

    Builds the scope's reference vector once; calling it with a document
    tokenizes and vectorizes the page text and returns its cosine to the
    reference.
    """

    def __init__(
        self, topical: TopicalScope, index: ArchiveIndex, idf: IdfDictionary | None = None
    ) -> None:
        self._idf = idf or default_idf_dictionary()
        self._reference = build_reference_vector(topical, self._idf, index=index)
        self._analyzer = get_analyzer(topical.language)

    def __call__(self, document: ArchivedDocument) -> float:
        doc_vector = vectorize(self._analyzer.tokens(document.scanned().text), self._idf)
        return topical_relevance(doc_vector, self._reference)


class SnapshotAnalysis:
    """Memoized analysis of snapshots under one spec and IDF.

    Builds the spec's reference vector once. Calling it with a snapshot
    fetches, scans and scores that snapshot at most once and returns its
    :class:`CollectionItem`, or the :class:`warc.MalformedRecord` its
    stored bytes raised. The result never depends on the crawl strategy,
    so one instance can serve every crawl of a comparison.
    """

    def __init__(
        self,
        spec: CollectionSpecification,
        index: ArchiveIndex,
        *,
        idf: IdfDictionary | None = None,
    ) -> None:
        self._index = index
        self._spec = spec
        self._topical = TopicalScorer(spec.topical, index, idf)
        self._memo: dict[SnapshotRecord, CollectionItem | warc.MalformedRecord] = {}

    def __call__(self, snapshot: SnapshotRecord) -> CollectionItem | warc.MalformedRecord:
        if snapshot not in self._memo:
            self._memo[snapshot] = self._analyze(snapshot)
        return self._memo[snapshot]

    def _analyze(self, snapshot: SnapshotRecord) -> CollectionItem | warc.MalformedRecord:
        try:
            document = fetch_document(self._index, snapshot)
        except warc.MalformedRecord as exc:
            return exc
        topical = self._topical(document)
        doc_time = extract_document_time(document)
        temporal = temporal_relevance(doc_time.epoch(), self._spec.temporal)
        score = RelevanceScore.combine(topical, temporal, self._spec.alpha)
        return CollectionItem(snapshot, score, tuple(extract_outlinks(document)))


def run_crawl(
    spec: CollectionSpecification,
    index: ArchiveIndex,
    strategy: CrawlStrategy = CrawlStrategy.COMBINED,
    *,
    idf: IdfDictionary | None = None,
    analysis: SnapshotAnalysis | None = None,
) -> CrawlResult:
    """Run one focused extraction over the archive.

    Reference documents must be resolvable up front (failure aborts the
    crawl); snapshots whose stored bytes are unreadable count as missing
    and appear in the trace as ``skip``. ``analysis``, when given, must
    be built from the same spec and ``idf``; sharing one across crawls
    changes no result and only stops repeated work.
    """
    if analysis is None:
        analysis = SnapshotAnalysis(spec, index, idf=idf)

    frontier = Frontier()
    for seed in spec.seeds:
        frontier.push(canonicalize_url(seed), SEED_PRIORITY)

    collection: list[CollectionItem] = []
    fetched: set[str] = set()
    missing: set[str] = set()
    trace: list[TraceRecord] = []
    step = 0

    while len(frontier) and len(collection) < spec.target_size:
        url, url_priority = frontier.pop()
        step += 1
        snapshots = index.resolve_snapshots(url)
        if not snapshots:
            missing.add(url)
            trace.append(TraceRecord(step, "miss", url, url_priority))
            continue

        snapshot = select_snapshot(snapshots, spec.temporal)
        item = analysis(snapshot)
        if isinstance(item, warc.MalformedRecord):
            logger.warning("unreadable snapshot for %s: %s", url, item)
            missing.add(url)
            trace.append(TraceRecord(step, "skip", url, url_priority, snapshot.capture_time))
            continue

        collection.append(item)
        fetched.add(url)

        score = item.score
        priority = strategy.priority_for(score)
        for target in item.outlinks:
            if target not in fetched and target not in missing:
                frontier.push(target, priority)

        trace.append(
            TraceRecord(
                step,
                "fetch",
                url,
                url_priority,
                snapshot.capture_time,
                score.topical,
                score.temporal,
                score.combined,
            )
        )

    return CrawlResult(
        collection=collection,
        missing=missing,
        trace=trace,
        queued_at_end=len(frontier),
    )


def write_trace(trace: Iterable[TraceRecord], path) -> None:
    """Write the per-fetch trace as quoted CSV with ``\\n`` line ends."""
    header = [field.name for field in fields(TraceRecord)]
    write_csv(path, header, (astuple(record) for record in trace), lineterminator="\n")
