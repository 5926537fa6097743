"""Relevance scoring: temporal decay, topical cosine, and their blend.

Temporal relevance is 1 inside the event interval and decays
exponentially outside it, scaled by the lead/cool-down durations.
Topical relevance is the cosine similarity between a document's term
vector and the reference vector. The combined score is the linear
blend ``alpha * topical + (1 - alpha) * temporal``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import TYPE_CHECKING
from urllib.parse import urlsplit

from .text import TermVector
from .timeutil import parse_iso8601, parse_ts14, to_epoch

if TYPE_CHECKING:  # pragma: no cover
    from .archive import ArchivedDocument
    from .spec import TemporalScope

__all__ = [
    "DocumentTime",
    "RelevanceScore",
    "TimeSource",
    "combined_relevance",
    "extract_document_time",
    "temporal_relevance",
    "topical_relevance",
]

# Metadata fields tried in order; a fixed order keeps extraction
# deterministic across pages that declare several of them.
_META_DATE_FIELDS = ("article:published_time", "date", "dcterms.date", "dc.date.issued")

_URL_SLASH_DATE_RE = re.compile(r"/((?:19|20)\d{2})/(\d{1,2})/(\d{1,2})(?:/|$)")
_URL_DASH_DATE_RE = re.compile(r"((?:19|20)\d{2})-(\d{2})-(\d{2})")


class TimeSource(str, Enum):
    PUBLICATION_METADATA = "publication_metadata"
    CONTENT_PATTERN = "content_pattern"
    URL_PATTERN = "url_pattern"
    CRAWL_TIME_FALLBACK = "crawl_time_fallback"


@dataclass(frozen=True)
class DocumentTime:
    time_point: datetime
    source: TimeSource

    def epoch(self) -> float:
        return to_epoch(self.time_point)


@dataclass(frozen=True)
class RelevanceScore:
    topical: float
    temporal: float
    combined: float

    @classmethod
    def combine(cls, topical: float, temporal: float, alpha: float) -> "RelevanceScore":
        return cls(topical, temporal, combined_relevance(topical, temporal, alpha))


def temporal_relevance(t_d: datetime | float, scope: "TemporalScope") -> float:
    """Exponential-decay temporal relevance of a document time point.

    Returns 1 inside [event_start, event_end]; outside, exp(-dt/gamma)
    where dt is the distance in seconds to the nearest interval end and
    gamma the lead (before) or cool-down (after) duration. A zero gamma
    makes the corresponding side score 0 (no lead time / no cool-down).
    """
    t = to_epoch(t_d) if isinstance(t_d, datetime) else float(t_d)
    start, end = scope.start_epoch, scope.end_epoch
    if start <= t <= end:
        return 1.0
    if t < start:
        gamma = float(scope.lead_time)
        delta = start - t
    else:
        gamma = float(scope.cool_down_time)
        delta = t - end
    if gamma <= 0.0:
        return 0.0
    return math.exp(-delta / gamma)


def topical_relevance(doc_vector: TermVector, reference: TermVector) -> float:
    """Cosine similarity of two term vectors; 0 when either is empty."""
    if doc_vector.norm == 0.0 or reference.norm == 0.0:
        return 0.0
    small, large = doc_vector.weights, reference.weights
    if len(small) > len(large):
        small, large = large, small
    dot = 0.0
    for term, weight in small.items():
        other = large.get(term)
        if other is not None:
            dot += weight * other
    return min(1.0, max(0.0, dot / (doc_vector.norm * reference.norm)))


def combined_relevance(topical: float, temporal: float, alpha: float) -> float:
    """Linear trade-off: alpha=1 is purely topical, alpha=0 purely temporal."""
    return alpha * topical + (1.0 - alpha) * temporal


def extract_document_time(document: "ArchivedDocument") -> DocumentTime:
    """Best-effort publication time of an archived document.

    Tries, in order: metadata date fields, a machine-readable ``time``
    element, a date pattern in the URL path, and finally the snapshot's
    capture time. Unparseable candidates fall through to the next step.
    """
    page = document.scanned()

    for fieldname in _META_DATE_FIELDS:
        value = page.meta_dates.get(fieldname)
        if value:
            parsed = _try_parse(value)
            if parsed is not None:
                return DocumentTime(parsed, TimeSource.PUBLICATION_METADATA)

    for value in page.time_datetimes:
        parsed = _try_parse(value)
        if parsed is not None:
            return DocumentTime(parsed, TimeSource.CONTENT_PATTERN)

    parsed = _date_from_url_path(document.snapshot.canonical_url)
    if parsed is not None:
        return DocumentTime(parsed, TimeSource.URL_PATTERN)

    capture = parse_ts14(document.snapshot.capture_time)
    return DocumentTime(capture, TimeSource.CRAWL_TIME_FALLBACK)


def _try_parse(value: str) -> datetime | None:
    try:
        return parse_iso8601(value)
    except ValueError:
        return None


def _date_from_url_path(url: str) -> datetime | None:
    path = urlsplit(url).path
    for pattern in (_URL_SLASH_DATE_RE, _URL_DASH_DATE_RE):
        match = pattern.search(path)
        if match:
            year, month, day = (int(g) for g in match.groups())
            try:
                return parse_iso8601(f"{year:04d}-{month:02d}-{day:02d}")
            except ValueError:
                continue
    return None
