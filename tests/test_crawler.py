import csv
import math
import random
from dataclasses import fields
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from eventcrawl.archive import (
    ArchiveIndex,
    ArchivedDocument,
    SnapshotRecord,
    build_index,
    fetch_document,
)
from eventcrawl.crawler import (
    CrawlStrategy,
    Frontier,
    SnapshotAnalysis,
    TraceRecord,
    extract_outlinks,
    run_crawl,
    select_snapshot,
    write_trace,
)
from eventcrawl.spec import (
    CollectionSpecification,
    ReferenceDocument,
    TemporalScope,
    TopicalScope,
)
from eventcrawl.text import IdfDictionary
from eventcrawl.timeutil import parse_ts14
from eventcrawl.urlnorm import CanonicalizationError, canonicalize_url
from eventcrawl.warc import MalformedRecord

from conftest import page_html, write_warc
from oracles import reference_bfs, reference_crawl, select_snapshot_oracle

UTC = timezone.utc
IDF = IdfDictionary({}, corpus_size=1000)


def snapshot_at(ts14: str) -> SnapshotRecord:
    return SnapshotRecord("http://e.de/x", ts14, "none.warc", 0, 1)


class TestSelectSnapshot:
    def test_earliest_within_interval_wins(self, event_scope):
        snaps = [
            snapshot_at("20110215000000"),  # before
            snapshot_at("20110303000000"),  # during (earliest)
            snapshot_at("20110310000000"),  # during
        ]
        assert select_snapshot(snaps, event_scope).capture_time == "20110303000000"

    def test_closest_when_all_outside(self, event_scope):
        snaps = [
            snapshot_at("20110319000000"),  # 5 days after end
            snapshot_at("20110322000000"),  # hmm: farther
        ]
        # distances: 2011-03-19 is 5d after 03-14; 03-22 is 8d after.
        assert select_snapshot(snaps, event_scope).capture_time == "20110319000000"

    def test_single_capture(self, event_scope):
        snaps = [snapshot_at("20150101000000")]
        assert select_snapshot(snaps, event_scope) is snaps[0]

    def test_distance_tie_prefers_earlier(self):
        scope = TemporalScope(
            event_start=datetime(2011, 3, 10, tzinfo=UTC),
            event_end=datetime(2011, 3, 20, tzinfo=UTC),
        )
        snaps = [snapshot_at("20110308000000"), snapshot_at("20110322000000")]
        assert select_snapshot(snaps, scope).capture_time == "20110308000000"

    def test_matches_exhaustive_oracle_randomized(self, event_scope):
        rng = random.Random(1234)
        base = int(event_scope.start_epoch) - 40 * 86400
        for _ in range(500):
            count = rng.randint(1, 8)
            epochs = sorted(rng.randrange(base, base + 100 * 86400) for _ in range(count))
            snaps = [
                snapshot_at(
                    datetime.fromtimestamp(e, tz=UTC).strftime("%Y%m%d%H%M%S")
                )
                for e in epochs
            ]
            assert select_snapshot(snaps, event_scope) == select_snapshot_oracle(
                snaps, event_scope
            )
            rng.shuffle(snaps)  # list order only breaks ties at one time
            assert select_snapshot(snaps, event_scope) == select_snapshot_oracle(
                snaps, event_scope
            )

    @pytest.mark.parametrize(
        "times",
        [
            ["20110305000000", "20110305000000"],  # inside, at one time
            ["20110301000000", "20110301000000", "20110310000000"],  # inside, at the start
            ["20110220000000", "20110220000000", "20110320000000"],  # before, at one time
            ["20110210000000", "20110320000000", "20110320000000"],  # after, at one time
            ["20110222000000", "20110222000000", "20110321000000"],  # before and after, one distance
        ],
    )
    def test_captures_at_one_time_in_two_warcs_keep_list_order(self, event_scope, times):
        snaps = [
            SnapshotRecord("http://e.de/x", ts14, f"{i % 2}.warc", 0, 1)
            for i, ts14 in enumerate(times)
        ]
        chosen = select_snapshot(snaps, event_scope)
        assert chosen is select_snapshot_oracle(snaps, event_scope)
        assert chosen is snaps[[s.capture_time for s in snaps].index(chosen.capture_time)]

    def test_parses_no_timestamp_after_the_open(self, tmp_path, event_scope, monkeypatch):
        from eventcrawl import archive

        pages = [
            {"url": f"http://e.de/{i}", "body": "x", "date_iso": f"2011-03-{day:02d}T00:00:00Z"}
            for i in range(3)
            for day in (2, 9, 20)
        ]
        build_index([write_warc(tmp_path / "a.warc.gz", pages)], tmp_path / "index.cdx")
        calls = []

        def counting_parse_ts14(value):
            calls.append(value)
            return parse_ts14(value)

        monkeypatch.setattr(archive, "parse_ts14", counting_parse_ts14)
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        assert calls == [] and index.record_count == 9
        for _ in range(3):
            for url in index.urls():
                select_snapshot(index.resolve_snapshots(url), event_scope)
        assert len(calls) == 9


class TestFrontier:
    def test_pop_order_priority_then_fifo(self):
        frontier = Frontier()
        frontier.push("http://e.de/a", 0.5)
        frontier.push("http://e.de/b", 0.9)
        frontier.push("http://e.de/c", 0.5)
        order = [frontier.pop() for _ in range(3)]
        assert order == [("http://e.de/b", 0.9), ("http://e.de/a", 0.5), ("http://e.de/c", 0.5)]

    def test_url_uniqueness_and_priority_upgrade(self):
        frontier = Frontier()
        frontier.push("http://e.de/a", 0.1)
        frontier.push("http://e.de/b", 0.5)
        frontier.push("http://e.de/a", 0.9)  # upgrade, keeps original sequence
        assert len(frontier) == 2
        assert frontier.pop() == ("http://e.de/a", 0.9)

    def test_downgrade_ignored(self):
        frontier = Frontier()
        frontier.push("http://e.de/a", 0.9)
        frontier.push("http://e.de/a", 0.1)
        assert frontier.pop() == ("http://e.de/a", 0.9)
        assert len(frontier) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            Frontier().pop()

    def test_nan_priority_rejected(self):
        with pytest.raises(ValueError):
            Frontier().push("http://e.de/a", float("nan"))

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["u0", "u1", "u2", "u3", "u4", "u5"]),
                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, float("inf")]),
            ),
            max_size=30,
        )
    )
    def test_matches_sort_based_oracle(self, operations):
        frontier = Frontier()
        oracle: dict[str, tuple[float, int]] = {}
        sequence = 0
        for url, priority in operations:
            frontier.push(url, priority)
            if url not in oracle:
                oracle[url] = (priority, sequence)
                sequence += 1
            elif priority > oracle[url][0]:
                oracle[url] = (priority, oracle[url][1])
        popped = []
        while len(frontier):
            url, _ = frontier.pop()
            popped.append(url)
        expected = [
            url
            for url, _ in sorted(oracle.items(), key=lambda kv: (-kv[1][0], kv[1][1]))
        ]
        assert popped == expected


class TestExtractOutlinks:
    def _doc(self, url: str, body: str) -> ArchivedDocument:
        return ArchivedDocument(
            snapshot=SnapshotRecord(url, "20110305120000", "none.warc", 0, 1),
            headers=[("Content-Type", "text/html")],
            body=body.encode("utf-8"),
        )

    def test_resolution_and_filtering(self):
        body = (
            '<a href="/a">a</a><a href="b.html">b</a>'
            '<a href="#frag">f</a><a href="mailto:x@y">m</a>'
        )
        doc = self._doc("http://e.de/d/", body)
        assert extract_outlinks(doc) == ["http://e.de/a", "http://e.de/d/b.html"]

    def test_duplicates_collapse_to_first(self):
        body = '<a href="/a">1</a><a href="/b">2</a><a href="/a#x">3</a>'
        doc = self._doc("http://e.de/", body)
        assert extract_outlinks(doc) == ["http://e.de/a", "http://e.de/b"]

    def test_no_anchors(self):
        assert extract_outlinks(self._doc("http://e.de/", "<p>plain</p>")) == []

    def test_base_element_honored(self):
        body = '<base href="http://other.de/dir/"><a href="x.html">x</a>'
        assert extract_outlinks(self._doc("http://e.de/", body)) == [
            "http://other.de/dir/x.html"
        ]

    def test_fragment_only_link_dropped(self):
        doc = self._doc("http://e.de/page", '<a href="#top">top</a>')
        assert extract_outlinks(doc) == []


def make_spec(seeds, scope, *, target_size=100, alpha=0.5, keywords=()):
    return CollectionSpecification(
        name="fixture",
        topical=TopicalScope(
            reference_documents=(ReferenceDocument("inline", "alpha beta gamma delta"),),
            keywords=tuple(keywords),
            language="none",
        ),
        temporal=scope,
        seeds=tuple(seeds),
        target_size=target_size,
    )


def star_archive(tmp_path, event_scope):
    pages = [
        {
            "url": "http://e.de/seed",
            "body": page_html("alpha beta", ["/r1", "/r2", "/r3"]),
            "date_iso": "2011-03-05T10:00:00Z",
        },
        {"url": "http://e.de/r1", "body": page_html("alpha"), "date_iso": "2011-03-06T10:00:00Z"},
        {"url": "http://e.de/r2", "body": page_html("beta"), "date_iso": "2011-03-07T10:00:00Z"},
        {"url": "http://e.de/r3", "body": page_html("gamma"), "date_iso": "2011-03-08T10:00:00Z"},
    ]
    write_warc(tmp_path / "star.warc.gz", pages)
    build_index([tmp_path / "star.warc.gz"], tmp_path / "index.cdx")
    return ArchiveIndex.open(tmp_path / "index.cdx")


class TestRunCrawl:
    def test_star_graph_fetches_all(self, tmp_path, event_scope):
        index = star_archive(tmp_path, event_scope)
        spec = make_spec(["http://e.de/seed"], event_scope, target_size=10)
        result = run_crawl(spec, index, CrawlStrategy.COMBINED, idf=IDF)
        assert set(result.fetched_urls) == {
            "http://e.de/seed",
            "http://e.de/r1",
            "http://e.de/r2",
            "http://e.de/r3",
        }
        assert result.missing == set()
        assert len(result.trace) == 4
        assert [t.action for t in result.trace] == ["fetch"] * 4

    def test_absent_outlink_goes_to_missing_once(self, tmp_path, event_scope):
        pages = [
            {
                "url": "http://e.de/seed",
                "body": page_html("alpha", ["/gone", "/r1"]),
            },
            {"url": "http://e.de/r1", "body": page_html("beta", ["/gone"])},
        ]
        write_warc(tmp_path / "a.warc.gz", pages)
        build_index([tmp_path / "a.warc.gz"], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        spec = make_spec(["http://e.de/seed"], event_scope)
        result = run_crawl(spec, index, CrawlStrategy.COMBINED, idf=IDF)
        assert result.missing == {"http://e.de/gone"}
        miss_steps = [t for t in result.trace if t.action == "miss"]
        assert len(miss_steps) == 1

    @pytest.mark.parametrize("bad_href", ["http://[x/", "http://a／b.test/"])
    def test_unparseable_outlink_is_dropped(self, tmp_path, event_scope, bad_href):
        pages = [
            {"url": "http://e.de/seed", "body": page_html("alpha", [bad_href, "/r1"])},
            {"url": "http://e.de/r1", "body": page_html("beta")},
        ]
        write_warc(tmp_path / "a.warc.gz", pages)
        build_index([tmp_path / "a.warc.gz"], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        spec = make_spec(["http://e.de/seed"], event_scope)
        result = run_crawl(spec, index, CrawlStrategy.COMBINED, idf=IDF)
        assert result.fetched_urls == ["http://e.de/seed", "http://e.de/r1"]
        assert result.missing == set()

    @pytest.mark.parametrize(
        "charset, body",
        [
            # bytes.decode raises ValueError for a codec name holding a null.
            ("a\x00b", page_html("alpha", ["/r1"])),
            # unicode_escape turns the href into a lone surrogate, which UTF-8 cannot encode.
            ("unicode_escape", b'<a href="/x\\udcff">x</a><a href="/r1">go</a>'),
        ],
        ids=["null-in-charset", "surrogate-in-href"],
    )
    def test_page_bytes_that_break_a_codec_do_not_abort_the_crawl(
        self, tmp_path, event_scope, charset, body
    ):
        pages = [
            {"url": "http://e.de/seed", "body": body, "media_type": f"text/html; charset={charset}"},
            {"url": "http://e.de/r1", "body": page_html("beta")},
        ]
        write_warc(tmp_path / "a.warc.gz", pages)
        build_index([tmp_path / "a.warc.gz"], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        spec = make_spec(["http://e.de/seed"], event_scope)
        result = run_crawl(spec, index, CrawlStrategy.COMBINED, idf=IDF)
        assert result.fetched_urls == ["http://e.de/seed", "http://e.de/r1"]
        assert result.missing == set()

    def test_target_size_one_stops_at_seed(self, tmp_path, event_scope):
        index = star_archive(tmp_path, event_scope)
        spec = make_spec(["http://e.de/seed"], event_scope, target_size=1)
        result = run_crawl(spec, index, CrawlStrategy.COMBINED, idf=IDF)
        assert result.fetched_urls == ["http://e.de/seed"]
        assert len(result.collection) == 1

    def test_no_url_fetched_twice(self, tmp_path, event_scope):
        # Cycle: seed <-> r1, plus self-links.
        pages = [
            {"url": "http://e.de/seed", "body": page_html("alpha", ["/r1", "/seed"])},
            {"url": "http://e.de/r1", "body": page_html("beta", ["/seed", "/r1"])},
        ]
        write_warc(tmp_path / "a.warc.gz", pages)
        build_index([tmp_path / "a.warc.gz"], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        spec = make_spec(["http://e.de/seed"], event_scope)
        result = run_crawl(spec, index, CrawlStrategy.COMBINED, idf=IDF)
        fetch_urls = [t.url for t in result.trace if t.action == "fetch"]
        assert len(fetch_urls) == len(set(fetch_urls)) == 2

    def test_collection_and_missing_disjoint(self, tmp_path, event_scope):
        pages = [
            {"url": "http://e.de/seed", "body": page_html("alpha", ["/gone", "/r1"])},
            {"url": "http://e.de/r1", "body": page_html("beta")},
        ]
        write_warc(tmp_path / "a.warc.gz", pages)
        build_index([tmp_path / "a.warc.gz"], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        result = run_crawl(
            make_spec(["http://e.de/seed"], event_scope), index, idf=IDF
        )
        assert set(result.fetched_urls).isdisjoint(result.missing)

    def test_outlink_priority_equals_parent_score(self, tmp_path, event_scope):
        # Tree: seed -> a -> b; no rediscovery, so the child's pop
        # priority must equal its parent's strategy score exactly.
        pages = [
            {"url": "http://e.de/seed", "body": page_html("alpha beta gamma", ["/a"])},
            {"url": "http://e.de/a", "body": page_html("alpha beta", ["/b"])},
            {"url": "http://e.de/b", "body": page_html("delta")},
        ]
        write_warc(tmp_path / "a.warc.gz", pages)
        build_index([tmp_path / "a.warc.gz"], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        spec = make_spec(["http://e.de/seed"], event_scope)
        result = run_crawl(spec, index, CrawlStrategy.CONTENT_FOCUSED, idf=IDF)
        by_url = {t.url: t for t in result.trace}
        assert by_url["http://e.de/a"].priority == by_url["http://e.de/seed"].topical
        assert by_url["http://e.de/b"].priority == by_url["http://e.de/a"].topical

    def test_unfocused_equals_reference_bfs(self, tmp_path, event_scope):
        rng = random.Random(99)
        n = 20
        urls = [f"http://e.de/p{i}" for i in range(n)]
        pages = []
        for i, url in enumerate(urls):
            links = [f"/p{rng.randrange(n)}" for _ in range(3)]
            pages.append(
                {
                    "url": url,
                    "body": page_html(f"alpha w{i}", links + ["/absent0", "/p1"]),
                    "date_iso": "2011-03-05T10:00:00Z",
                }
            )
        write_warc(tmp_path / "g.warc.gz", pages)
        build_index([tmp_path / "g.warc.gz"], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        spec = make_spec([urls[0], urls[3]], event_scope, target_size=50)
        result = run_crawl(spec, index, CrawlStrategy.UNFOCUSED, idf=IDF)
        bfs_order, bfs_missing = reference_bfs(spec, index)
        assert result.fetched_urls == bfs_order
        assert result.missing == bfs_missing

    def test_unreadable_snapshot_counts_as_missing_with_skip_trace(
        self, tmp_path, event_scope
    ):
        pages = [
            {"url": "http://e.de/seed", "body": page_html("alpha", ["/r1"])},
            {"url": "http://e.de/r1", "body": page_html("beta " * 100)},
        ]
        warc_path = write_warc(tmp_path / "a.warc.gz", pages)
        build_index([warc_path], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        # Corrupt the second record's compressed stream after indexing.
        snapshot = index.resolve_snapshots("http://e.de/r1")[0]
        with open(warc_path, "r+b") as handle:
            handle.seek(snapshot.offset + snapshot.length // 2)
            handle.write(b"\xff" * 16)
        spec = make_spec(["http://e.de/seed"], event_scope)
        # A shared analysis remembers the unreadable snapshot: every crawl skips it.
        analysis = SnapshotAnalysis(spec, index, idf=IDF)
        for strategy in (CrawlStrategy.COMBINED, CrawlStrategy.UNFOCUSED):
            result = run_crawl(spec, index, strategy, analysis=analysis)
            assert result.missing == {"http://e.de/r1"}
            actions = {t.url: t.action for t in result.trace}
            assert actions["http://e.de/r1"] == "skip"

    def test_snapshot_past_the_end_of_a_truncated_warc_is_skipped(self, tmp_path, event_scope):
        pages = [
            {"url": "http://e.de/seed", "body": page_html("alpha", ["/r1"])},
            {"url": "http://e.de/r1", "body": page_html("beta")},
        ]
        warc_path = write_warc(tmp_path / "a.warc.gz", pages)
        build_index([warc_path], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        # Cut the file inside the last record's span, after indexing.
        snapshot = index.resolve_snapshots("http://e.de/r1")[0]
        with open(warc_path, "r+b") as handle:
            handle.truncate(snapshot.offset + snapshot.length - 1)
        with pytest.raises(MalformedRecord, match="record span extends past end of file"):
            fetch_document(index, snapshot)
        spec = make_spec(["http://e.de/seed"], event_scope)
        result = run_crawl(spec, index, CrawlStrategy.UNFOCUSED, idf=IDF)
        assert result.missing == {"http://e.de/r1"}
        assert [(t.url, t.action) for t in result.trace] == [
            ("http://e.de/seed", "fetch"),
            ("http://e.de/r1", "skip"),
        ]

    def test_body_in_a_coding_it_cannot_decode_is_skipped(self, tmp_path, event_scope):
        pages = [
            {"url": "http://e.de/seed", "body": page_html("alpha", ["/br", "/r1"])},
            {
                "url": "http://e.de/br",
                "http_headers": [b"Content-Type: text/html", b"Content-Encoding: br"],
                "body": b"\x8b\x03\x80<p>alpha</p>\x03",
            },
            {"url": "http://e.de/r1", "body": page_html("beta")},
        ]
        build_index([write_warc(tmp_path / "a.warc.gz", pages)], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        spec = make_spec(["http://e.de/seed"], event_scope)
        result = run_crawl(spec, index, CrawlStrategy.UNFOCUSED, idf=IDF)
        assert result.fetched_urls == ["http://e.de/seed", "http://e.de/r1"]
        assert result.missing == {"http://e.de/br"}
        assert [(t.url, t.action) for t in result.trace if t.action != "fetch"] == [
            ("http://e.de/br", "skip")
        ]

    @pytest.mark.parametrize("strategy", list(CrawlStrategy))
    def test_matches_reference_simulation(self, tmp_path, event_scope, strategy):
        rng = random.Random(hash(strategy.value) & 0xFFFF)
        index, spec = _random_fixture(tmp_path, event_scope, rng, n_urls=30)
        result = run_crawl(spec, index, strategy, idf=IDF)
        expected_order, expected_missing = reference_crawl(
            spec, index, strategy.value, IDF
        )
        assert result.fetched_urls == expected_order
        assert result.missing == expected_missing

    def test_german_spec_scores_with_the_german_analyzer(self, tmp_path, event_scope):
        pages = [
            {"url": "http://e.de/seed", "body": page_html("Hochwasser der Elbe", ["/a", "/b"])},
            {"url": "http://e.de/a", "body": page_html("Die Wahlen zum Bundestag")},
            {"url": "http://e.de/b", "body": page_html("Die Überschwemmung der Elbe")},
        ]
        build_index([write_warc(tmp_path / "a.warc.gz", pages)], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        reference = ReferenceDocument("inline", "Überschwemmungen an der Elbe")
        spec = CollectionSpecification(
            name="hochwasser",
            topical=TopicalScope(reference_documents=(reference,), language="de"),
            temporal=event_scope,
            seeds=("http://e.de/seed",),
        )
        result = run_crawl(spec, index, CrawlStrategy.CONTENT_FOCUSED, idf=IDF)
        # "Überschwemmung" and "Überschwemmungen" share the stem "uberschwemmung";
        # "an" and "der" are stop words, so /b's terms are the reference's.
        topical = {item.snapshot.canonical_url: item.score.topical for item in result.collection}
        assert topical == {
            "http://e.de/seed": pytest.approx(0.19245008972987523),
            "http://e.de/a": 0.0,
            "http://e.de/b": pytest.approx(1.0),
        }


def test_trace_csv_quotes_a_url_with_a_comma(tmp_path):
    trace = [
        TraceRecord(1, "fetch", "http://a.test/q?a=1,2", math.inf, "20110305120000", 0.5, 1.0, 0.75),
        TraceRecord(2, "miss", "http://a.test/gone", 0.75),
    ]
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["url"] for row in rows] == ["http://a.test/q?a=1,2", "http://a.test/gone"]
    assert [row["combined"] for row in rows] == ["0.75", ""]
    assert path.read_bytes().endswith(b"\n2,miss,http://a.test/gone,0.75,,,,\n")


def _canonical_or_none(path):
    try:
        return canonicalize_url("http://a.test/" + path)
    except CanonicalizationError:
        return None


# Every URL the crawler traces comes off the frontier, so it is canonical.
_trace_urls = st.text().map(_canonical_or_none).filter(bool)
_scores = st.none() | st.floats(allow_nan=False)
_trace_records = st.builds(
    TraceRecord,
    st.integers(min_value=1, max_value=10**9),
    st.sampled_from(["fetch", "miss", "skip"]),
    _trace_urls,
    st.floats(allow_nan=False),
    st.just("") | st.from_regex(r"[0-9]{14}", fullmatch=True),
    _scores,
    _scores,
    _scores,
)


@given(st.lists(_trace_records, max_size=8))
@example([TraceRecord(1, "fetch", "a\rb", 0.0, "a\rb")])
def test_trace_csv_reads_back_as_the_trace(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    write_trace(trace, path)
    with open(path, encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == [field.name for field in fields(TraceRecord)]
    read = [
        TraceRecord(
            int(step), action, url, float(priority), snapshot_time,
            *(float(score) if score else None for score in scores),
        )
        for step, action, url, priority, snapshot_time, *scores in rows
    ]
    assert read == trace


def _random_fixture(tmp_path, event_scope, rng, n_urls=30, name="rand"):
    vocab = ["alpha", "beta", "gamma", "delta", "epsi", "zeta", "eta", "theta"]
    urls = [f"http://e.de/{name}{i}" for i in range(n_urls)]
    base_epoch = int(event_scope.start_epoch) - 60 * 86400
    pages = []
    for i, url in enumerate(urls):
        words = " ".join(rng.choices(vocab, k=rng.randint(3, 12)))
        links = [f"/{name}{rng.randrange(n_urls)}" for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.3:
            links.append(f"/absent{rng.randrange(5)}")
        when = datetime.fromtimestamp(
            base_epoch + rng.randrange(0, 120 * 86400), tz=UTC
        )
        pages.append(
            {
                "url": url,
                "body": page_html(words, links),
                "date_iso": when.strftime("%Y-%m-%dT%H:%M:%SZ"),
            }
        )
    write_warc(tmp_path / f"{name}.warc.gz", pages)
    build_index([tmp_path / f"{name}.warc.gz"], tmp_path / f"{name}.cdx")
    index = ArchiveIndex.open(tmp_path / f"{name}.cdx")
    seeds = rng.sample(urls, k=min(2, n_urls))
    spec = make_spec(seeds, event_scope, target_size=n_urls * 2)
    return index, spec
