import math
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from eventcrawl.archive import ArchivedDocument, SnapshotRecord
from eventcrawl.relevance import (
    RelevanceScore,
    TimeSource,
    combined_relevance,
    extract_document_time,
    temporal_relevance,
    topical_relevance,
)
from eventcrawl.spec import TemporalScope
from eventcrawl.text import TermVector

UTC = timezone.utc


def scope_at(start: float, end: float, lead: float, cool: float) -> TemporalScope:
    epoch = datetime(1970, 1, 1, tzinfo=UTC)
    return TemporalScope(
        event_start=epoch + timedelta(seconds=start),
        event_end=epoch + timedelta(seconds=end),
        lead_time=lead,
        cool_down_time=cool,
    )


class TestTemporalRelevance:
    def test_inside_interval_is_one(self, event_scope):
        inside = datetime(2011, 3, 7, tzinfo=UTC)
        assert temporal_relevance(inside, event_scope) == 1.0

    def test_boundaries_are_one(self, event_scope):
        assert temporal_relevance(event_scope.event_start, event_scope) == 1.0
        assert temporal_relevance(event_scope.event_end, event_scope) == 1.0

    def test_exactly_gamma_after_end_is_inv_e(self, event_scope):
        t = event_scope.end_epoch + event_scope.cool_down_time
        assert temporal_relevance(t, event_scope) == pytest.approx(
            math.exp(-1), abs=1e-9
        )

    def test_exactly_gamma_before_start_is_inv_e(self, event_scope):
        t = event_scope.start_epoch - event_scope.lead_time
        assert temporal_relevance(t, event_scope) == pytest.approx(
            math.exp(-1), abs=1e-9
        )

    def test_zero_lead_time_scores_zero_before_event(self):
        scope = scope_at(1000, 2000, lead=0.0, cool=500.0)
        assert temporal_relevance(999.0, scope) == 0.0
        # Inside is unaffected by the zero decay factor.
        assert temporal_relevance(1500.0, scope) == 1.0

    def test_zero_cool_down_scores_zero_after_event(self):
        scope = scope_at(1000, 2000, lead=500.0, cool=0.0)
        assert temporal_relevance(2000.5, scope) == 0.0

    @given(
        start=st.integers(0, 10**9),
        length=st.integers(0, 10**7),
        lead=st.integers(0, 10**7),
        cool=st.integers(0, 10**7),
        probes=st.lists(st.integers(-(10**9), 2 * 10**9), min_size=2, max_size=20),
    )
    def test_monotonicity_law(self, start, length, lead, cool, probes):
        scope = scope_at(start, start + length, float(lead), float(cool))
        values = [(t, temporal_relevance(float(t), scope)) for t in sorted(probes)]
        for (t1, v1), (t2, v2) in zip(values, values[1:]):
            if t2 < start:  # non-decreasing while approaching the event
                assert v1 <= v2 + 1e-15
            if t1 > start + length:  # non-increasing while leaving it
                assert v1 >= v2 - 1e-15
        for t, v in values:
            assert 0.0 <= v <= 1.0
            if v == 1.0 and lead > 0 and cool > 0:
                assert start <= t <= start + length

    def test_continuity_at_boundaries(self):
        scope = scope_at(1000, 2000, lead=600.0, cool=600.0)
        for epsilon in (1.0, 0.1, 0.001):
            assert temporal_relevance(1000 - epsilon, scope) == pytest.approx(
                1.0, abs=2 * epsilon / 600.0
            )
            assert temporal_relevance(2000 + epsilon, scope) == pytest.approx(
                1.0, abs=2 * epsilon / 600.0
            )


class TestTopicalRelevance:
    def test_identical_vectors_score_one(self):
        v = TermVector({"a": 1.0, "b": 2.0})
        assert topical_relevance(v, v) == pytest.approx(1.0)

    def test_disjoint_vectors_score_zero(self):
        assert topical_relevance(TermVector({"a": 1.0}), TermVector({"b": 1.0})) == 0.0

    def test_hand_derived_example(self):
        result = topical_relevance(TermVector({"a": 1.0, "b": 1.0}), TermVector({"a": 1.0}))
        assert result == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_zero_vector_scores_zero(self):
        assert topical_relevance(TermVector({}), TermVector({"a": 1.0})) == 0.0

    def test_symmetry_and_scale_invariance(self):
        u = TermVector({"a": 1.0, "b": 3.0, "c": 0.5})
        v = TermVector({"b": 2.0, "c": 1.0, "d": 4.0})
        assert topical_relevance(u, v) == pytest.approx(topical_relevance(v, u))
        assert topical_relevance(u.scaled(7.3), v) == pytest.approx(
            topical_relevance(u, v), rel=1e-9
        )

    @given(
        st.dictionaries(st.sampled_from("abcdef"), st.floats(0, 100), max_size=6),
        st.dictionaries(st.sampled_from("abcdef"), st.floats(0, 100), max_size=6),
    )
    def test_range_property(self, w1, w2):
        value = topical_relevance(TermVector(w1), TermVector(w2))
        assert 0.0 <= value <= 1.0


# Scores as topical_relevance and temporal_relevance return them.
_SCORES = st.floats(min_value=0.0, max_value=1.0)


class TestCombinedRelevance:
    def test_both_maximal(self):
        assert combined_relevance(1.0, 1.0, 0.5) == 1.0

    @given(topical=_SCORES, temporal=_SCORES)
    def test_alpha_one_is_purely_topical(self, topical, temporal):
        assert combined_relevance(topical, temporal, 1.0) == topical

    @given(topical=_SCORES, temporal=_SCORES)
    def test_alpha_zero_is_purely_temporal(self, topical, temporal):
        assert combined_relevance(topical, temporal, 0.0) == temporal

    def test_stated_formula(self):
        assert combined_relevance(0.8, 0.4, 0.5) == pytest.approx(0.6)

    def test_score_invariant(self):
        score = RelevanceScore.combine(0.8, 0.4, 0.25)
        assert score.combined == pytest.approx(
            0.25 * 0.8 + 0.75 * 0.4, abs=1e-12
        )

    def test_alpha_one_preserves_topical_ranking(self):
        import random

        rng = random.Random(5)
        docs = [(rng.random(), rng.random()) for _ in range(100)]
        by_combined = sorted(
            range(100), key=lambda i: -combined_relevance(docs[i][0], docs[i][1], 1.0)
        )
        by_topical = sorted(range(100), key=lambda i: -docs[i][0])
        assert by_combined == by_topical


def doc_with(url: str, body: str, capture: str = "20060610120000") -> ArchivedDocument:
    snapshot = SnapshotRecord(url, capture, "none.warc", 0, 1)
    return ArchivedDocument(
        snapshot=snapshot,
        headers=[("Content-Type", "text/html; charset=utf-8")],
        body=body.encode("utf-8"),
    )


class TestExtractDocumentTime:
    def test_publication_metadata_wins(self):
        doc = doc_with(
            "http://e.de/a",
            '<html><head><meta property="article:published_time" '
            'content="2011-03-12T09:00:00Z"></head><body>x</body></html>',
        )
        extracted = extract_document_time(doc)
        assert extracted.time_point == datetime(2011, 3, 12, 9, tzinfo=UTC)
        assert extracted.source == TimeSource.PUBLICATION_METADATA

    def test_metadata_field_order(self):
        doc = doc_with(
            "http://e.de/a",
            '<meta name="date" content="2010-01-01">'
            '<meta property="article:published_time" content="2011-03-12T09:00:00Z">',
        )
        assert extract_document_time(doc).time_point == datetime(
            2011, 3, 12, 9, tzinfo=UTC
        )

    def test_time_element_is_content_pattern(self):
        doc = doc_with(
            "http://e.de/a",
            '<body><time datetime="2012-06-01T08:30:00Z">June</time></body>',
        )
        extracted = extract_document_time(doc)
        assert extracted.source == TimeSource.CONTENT_PATTERN
        assert extracted.time_point == datetime(2012, 6, 1, 8, 30, tzinfo=UTC)

    def test_url_pattern(self):
        doc = doc_with("http://example.de/2009/09/27/wahl", "<p>no dates here</p>")
        extracted = extract_document_time(doc)
        assert extracted.source == TimeSource.URL_PATTERN
        assert extracted.time_point == datetime(2009, 9, 27, tzinfo=UTC)

    def test_url_dash_pattern(self):
        doc = doc_with("http://example.de/posts/2010-05-17-title", "<p>x</p>")
        extracted = extract_document_time(doc)
        assert extracted.source == TimeSource.URL_PATTERN
        assert extracted.time_point == datetime(2010, 5, 17, tzinfo=UTC)

    def test_crawl_time_fallback(self):
        doc = doc_with("http://e.de/plain", "<p>nothing datable</p>")
        extracted = extract_document_time(doc)
        assert extracted.source == TimeSource.CRAWL_TIME_FALLBACK
        assert extracted.time_point == datetime(2006, 6, 10, 12, tzinfo=UTC)

    def test_unparseable_metadata_falls_through(self):
        doc = doc_with(
            "http://e.de/2009/09/27/x",
            '<meta property="article:published_time" content="not a date">',
        )
        assert extract_document_time(doc).source == TimeSource.URL_PATTERN

    def test_metadata_outside_the_utc_range_falls_through(self):
        doc = doc_with(
            "http://e.de/2009/09/27/x",
            '<meta property="article:published_time" content="9999-12-31T23:59:59-01:00">',
        )
        assert extract_document_time(doc).source == TimeSource.URL_PATTERN

    def test_invalid_url_date_falls_through_to_capture(self):
        doc = doc_with("http://e.de/2009/02/31/x", "<p>x</p>")
        assert extract_document_time(doc).source == TimeSource.CRAWL_TIME_FALLBACK
