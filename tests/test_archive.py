import gzip
import hashlib
import re
import signal
import sys
import threading
import time
import zlib
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from eventcrawl import archive, warc
from eventcrawl.archive import (
    ArchiveIndex,
    SnapshotRecord,
    build_index,
    fetch_document,
    write_collection,
)
from eventcrawl.timeutil import TS14_PATTERN, parse_ts14, to_epoch
from eventcrawl.urlnorm import CanonicalizationError, canonicalize_url
from eventcrawl.warc import MalformedRecord, WarcWriter, build_response_record

from conftest import page_html, write_warc
from oracles import reference_scan


class TestBuildIndex:
    def test_counts_and_status_filter(self, tmp_path):
        write_warc(
            tmp_path / "a.warc.gz",
            [
                {"url": "http://e.de/1", "body": "one"},
                {"url": "http://e.de/2", "body": "two"},
                {"url": "http://e.de/3", "body": "three"},
                {"url": "http://e.de/redirect", "body": "moved", "status": 301},
            ],
        )
        summary = build_index([tmp_path / "a.warc.gz"], tmp_path / "index.cdx")
        assert summary.record_count == 3
        assert summary.url_count == 3
        assert summary.skipped == 0

    def test_non_html_media_type_not_indexed(self, tmp_path):
        write_warc(
            tmp_path / "a.warc.gz",
            [
                {"url": "http://e.de/page", "body": "x"},
                {"url": "http://e.de/img", "body": "x", "media_type": "image/png"},
                {
                    "url": "http://e.de/xhtml",
                    "body": "x",
                    "media_type": "application/xhtml+xml",
                },
            ],
        )
        summary = build_index([tmp_path / "a.warc.gz"], tmp_path / "index.cdx")
        assert summary.record_count == 2

    def test_empty_input(self, tmp_path):
        summary = build_index([], tmp_path / "index.cdx")
        assert summary.url_count == 0 and summary.record_count == 0
        assert ArchiveIndex.open(tmp_path / "index.cdx").record_count == 0

    def test_warc_date_outside_the_utc_range_is_skipped(self, tmp_path):
        write_warc(
            tmp_path / "a.warc.gz",
            [
                {"url": "http://e.de/early", "body": "x", "date_iso": "0001-01-01T00:00:00+01:00"},
                {"url": "http://e.de/late", "body": "x", "date_iso": "9999-12-31T23:59:59-01:00"},
                {"url": "http://e.de/ok", "body": "x"},
            ],
        )
        summary = build_index([tmp_path / "a.warc.gz"], tmp_path / "index.cdx")
        assert summary.record_count == 1
        assert list(ArchiveIndex.open(tmp_path / "index.cdx").urls()) == ["http://e.de/ok"]

    def test_multi_capture_matches_reference_reader(self, tmp_path):
        pages = [
            {"url": "http://e.de/x", "body": f"version {i}", "date_iso": d}
            for i, d in enumerate(
                ["2011-03-09T10:00:00Z", "2011-03-02T10:00:00Z", "2011-03-05T10:00:00Z"]
            )
        ]
        # The second file holds the earliest capture: time orders captures before file.
        paths = [
            write_warc(tmp_path / "a.warc.gz", pages),
            write_warc(tmp_path / "b.warc.gz", [{**pages[0], "date_iso": "2011-03-01T10:00:00Z"}]),
        ]
        build_index(paths, tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")

        expected = sorted(
            r["date"].replace("-", "").replace(":", "").replace("T", "").rstrip("Z")
            for path in paths
            for r in reference_scan(path)
            if r["status"] == 200
        )
        snapshots = index.resolve_snapshots("http://e.de/x")
        assert [s.capture_time for s in snapshots] == expected
        lines = (tmp_path / "index.cdx").read_text(encoding="utf-8").splitlines()
        assert [line.split(" ")[1] for line in lines] == expected
        assert index.url_count == 1 and index.record_count == 4

    def test_malformed_record_skipped_and_tallied(self, tmp_path):
        path = write_warc(tmp_path / "a.warc.gz", [{"url": "http://e.de/1", "body": "ok"}])
        with open(path, "ab") as handle:
            handle.write(b"\x1f\x8bnot really gzip")
        summary = build_index([path], tmp_path / "index.cdx")
        assert summary.record_count == 1
        assert summary.skipped == 1

    def test_left_out_records_are_counted_by_reason(self, tmp_path):
        def response(url="http://e.de/page", date="2011-03-05T12:00:00Z", **kwargs):
            return build_response_record(url, date, b"x", record_id="urn:x", **kwargs)

        records = {
            "not a response": response().replace(b"WARC-Type: response", b"WARC-Type: request"),
            "no URI or date": response(url=""),
            "bad date": response(date="2011-13-05T12:00:00Z"),
            "bad HTTP head": response().replace(b"HTTP/1.1 200", b"HTTP/1.1 2x0"),
            "not 200": response(http_status=404),
            "not HTML": response(media_type="image/png"),
            "not canonicalizable": response(url="ftp://e.de/page"),
        }
        path = tmp_path / "a.warc.gz"
        with WarcWriter(path) as writer:
            writer.write_record_bytes(response())
            for raw in records.values():
                writer.write_record_bytes(raw)
        with open(path, "ab") as handle:
            handle.write(b"\x1f\x8bnot really gzip")
        summary = build_index([path], tmp_path / "index.cdx")
        assert summary.record_count == 1
        assert summary.skipped == 1  # only the unreadable record
        assert summary.left_out == dict.fromkeys(records, 1)
        assert list(summary.left_out) == list(records)  # report order

    def test_records_carry_the_epoch_of_their_capture_time(self, tmp_path):
        path = write_warc(
            tmp_path / "a.warc.gz",
            [
                {"url": "http://e.de/1", "body": "x", "date_iso": "2011-03-05T12:00:00.75Z"},
                {"url": "http://e.de/2", "body": "x", "date_iso": "0999-01-01T00:00:00Z"},
            ],
        )
        warc_file = str(path.resolve())
        built = [archive._index_record(raw, warc_file) for raw in warc.iter_raw_records(path)]
        assert [record.epoch for record in built] == [None, None]  # the build parses no ts14
        build_index([path], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        opened = [snapshot for url in index.urls() for snapshot in index.resolve_snapshots(url)]
        assert sorted(built) == sorted(opened)
        assert [record.epoch for record in opened] == [None, None]  # a lookup parses no ts14
        for record in built + opened:  # the first capture_epoch() fills it, in whole seconds
            assert record.capture_epoch() == record.epoch == to_epoch(parse_ts14(record.capture_time))

    def test_canonicalizes_only_the_records_it_indexes(self, tmp_path, monkeypatch):
        calls = []

        def counting_canonicalize(url):
            calls.append(url)
            return canonicalize_url(url)

        monkeypatch.setattr(archive, "canonicalize_url", counting_canonicalize)
        path = write_warc(
            tmp_path / "a.warc.gz",
            [
                {"url": "http://e.de/page", "body": "x"},
                {"url": "http://e.de/logo.png", "body": "x", "media_type": "image/png"},
                {"url": "http://e.de/gone", "body": "x", "status": 404},
            ],
        )
        assert build_index([path], tmp_path / "index.cdx").record_count == 1
        assert calls == ["http://e.de/page"]

    def test_unreadable_file_aborts(self, tmp_path):
        with pytest.raises(OSError):
            build_index([tmp_path / "missing.warc.gz"], tmp_path / "index.cdx")

    def test_failed_write_keeps_previous_index(self, tmp_path, monkeypatch):
        pages = [{"url": f"http://e.de/{i}", "body": "x"} for i in range(3)]
        path = write_warc(tmp_path / "a.warc.gz", pages)
        build_index([path], tmp_path / "index.cdx")
        before = (tmp_path / "index.cdx").read_bytes()
        listing = sorted(tmp_path.iterdir())
        to_line = SnapshotRecord.to_line
        lines = iter(range(3))

        def failing_to_line(record):
            if next(lines) == 1:
                raise OSError("disk full")
            return to_line(record)

        monkeypatch.setattr(SnapshotRecord, "to_line", failing_to_line)
        with pytest.raises(OSError, match="disk full"):
            build_index([path], tmp_path / "index.cdx")
        assert (tmp_path / "index.cdx").read_bytes() == before
        assert sorted(tmp_path.iterdir()) == listing

    @pytest.mark.parametrize("name", ["a\nb.warc", "a\rb.warc"])
    def test_path_with_a_line_break_is_refused_before_any_write(self, tmp_path, name):
        good = write_warc(tmp_path / "good.warc.gz", [{"url": "http://e.de/1", "body": "x"}])
        build_index([good], tmp_path / "index.cdx")
        before = (tmp_path / "index.cdx").read_bytes()
        listing = sorted(tmp_path.iterdir())
        bad = write_warc(tmp_path / name, [{"url": "http://e.de/2", "body": "x"}])
        with pytest.raises(ValueError, match="line break") as refused:
            build_index([good, bad], tmp_path / "index.cdx")
        assert repr(str(bad.resolve())) in str(refused.value)
        assert (tmp_path / "index.cdx").read_bytes() == before
        assert sorted(tmp_path.iterdir()) == sorted(listing + [bad])


class TestIndexLines:
    @given(rest=st.text(max_size=30))
    def test_line_round_trip_over_canonical_urls(self, rest):
        try:
            url = canonicalize_url(f"http://a.test/{rest}")
        except CanonicalizationError:
            return
        record = SnapshotRecord(url, "20110305120000", "/w/a b.warc.gz", 7, 99, 200, "text/html")
        assert SnapshotRecord.from_line(record.to_line()) == record

    def test_epoch_is_derived_and_left_out_of_equality(self):
        record = SnapshotRecord("http://e.de/", "20110305120000", "/w/a.warc.gz", 7, 99)
        other = SnapshotRecord("http://e.de/", "20110305120000", "/w/a.warc.gz", 7, 99, epoch=0.0)
        assert record == other and hash(record) == hash(other) and not record < other
        assert record.capture_epoch() == record.epoch == to_epoch(parse_ts14("20110305120000"))
        assert other.capture_epoch() == 0.0
        assert "epoch" not in repr(record)

    def test_bad_timestamp_fails_open(self, tmp_path):
        path = write_warc(tmp_path / "a.warc.gz", [{"url": "http://e.de/1", "body": "x"}])
        build_index([path], tmp_path / "index.cdx")
        line = (tmp_path / "index.cdx").read_text(encoding="utf-8")
        for bad in ("20111305120000", "2011030512000x", "\u0662\u0660\u0661\u06610305120000"):
            (tmp_path / "bad.cdx").write_text(line.replace("20110305120000", bad), encoding="utf-8")
            with pytest.raises(ValueError, match="timestamp"):
                ArchiveIndex.open(tmp_path / "bad.cdx")

    @pytest.mark.parametrize("bad", ["-7", "+7", "1_000", "\u0667", "07", "7\t"])
    @pytest.mark.parametrize("field", [3, 4, 5])
    def test_open_rejects_integers_that_to_line_never_writes(self, tmp_path, field, bad):
        path = write_warc(tmp_path / "a.warc.gz", [{"url": "http://e.de/1", "body": "x"}])
        build_index([path], tmp_path / "index.cdx")
        parts = (tmp_path / "index.cdx").read_text(encoding="utf-8").rstrip("\n").split(" ")
        parts[field] = bad
        (tmp_path / "bad.cdx").write_text(" ".join(parts) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad index line"):
            ArchiveIndex.open(tmp_path / "bad.cdx")

    def test_blank_lines_and_file_order_do_not_change_the_lookup(self, tmp_path):
        pages = [
            {"url": f"http://e.de/{name}", "body": "x", "date_iso": f"2011-03-{day:02d}T00:00:00Z"}
            for name in ("a", "b")
            for day in (9, 2, 5)
        ]
        build_index([write_warc(tmp_path / "a.warc.gz", pages)], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        expected = {url: index.resolve_snapshots(url) for url in index.urls()}
        lines = (tmp_path / "index.cdx").read_text(encoding="utf-8").splitlines()
        shuffled = ["", lines[5], lines[0], " ", lines[3], lines[4], lines[1], "\t", lines[2]]
        (tmp_path / "shuffled.cdx").write_text("\n".join(shuffled), encoding="utf-8")
        reopened = ArchiveIndex.open(tmp_path / "shuffled.cdx")
        assert (reopened.url_count, reopened.record_count) == (2, 6)
        assert list(reopened.urls()) == ["http://e.de/b", "http://e.de/a"]  # first seen first
        assert {url: reopened.resolve_snapshots(url) for url in reopened.urls()} == expected

    def test_url_with_space_indexes_opens_and_resolves(self, tmp_path):
        path = write_warc(tmp_path / "a.warc.gz", [{"url": "http://a.test/b c", "body": "x"}])
        build_index([path], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        (snapshot,) = index.resolve_snapshots("http://a.test/b c")
        assert snapshot.canonical_url == "http://a.test/b%20c"
        assert fetch_document(index, snapshot).body == b"x"

    def test_media_type_with_space_indexes_opens_and_fetches(self, tmp_path):
        path = write_warc(
            tmp_path / "a.warc.gz",
            [{"url": "http://a.test/", "body": "x", "media_type": "text/html foo"}],
        )
        build_index([path], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        (snapshot,) = index.resolve_snapshots("http://a.test/")
        assert snapshot.media_type == "text/html"
        assert fetch_document(index, snapshot).body == b"x"


# WARC files that exist; a file name may hold a space or a form feed.
_WARC_NAMES = ("a.warc.gz", "a b.warc.gz", "a\x0cb.warc.gz")


@st.composite
def _index_lines(draw):
    """Lines near the index grammar: each field is valid, or one time in
    four a near miss, and some lines have too few fields."""
    integer = (
        st.integers(0, 10**6).map(str),
        st.sampled_from(["-7", "+7", "1_000", "\u0667", "07", "", "x", "7\t"]),
    )
    fields = [
        (st.sampled_from(["http://e.de/", "http://e.de/\x85\u2028", ""]), st.text(max_size=8)),
        (
            st.datetimes(min_value=datetime(1, 1, 1)).map(
                lambda d: f"{d.year:04d}{d:%m%d%H%M%S}"
            ),
            st.sampled_from(["00000229000000", "20110229000000", "2011030512000x", ""]),
        ),
        (st.sampled_from(_WARC_NAMES), st.sampled_from(_WARC_NAMES)),
        integer,
        integer,
        integer,
        (st.sampled_from(["text/html", "text/html\x0c", ""]), st.text(max_size=8)),
    ]
    values = [draw(near if draw(st.integers(0, 3)) == 0 else valid) for valid, near in fields]
    return " ".join(values if draw(st.booleans()) else values[: draw(st.integers(1, 7))])


# The index grammar before the WARC path was read word by word: a greedy
# group takes the rest of the line and gives it back until the tail fits.
_GREEDY_INDEX_LINE = re.compile(
    rf"(?m)^(([!-~]*) {TS14_PATTERN} ([^\r\n]*)"
    r" (?:0|[1-9][0-9]*) (?:0|[1-9][0-9]*) (?:0|[1-9][0-9]*) [^ \r\n]*)$"
)
# Text set before or after an index line: spaces, extra fields, a form
# feed and a NEL (neither ends a line here), and line breaks.
_AFFIXES = st.lists(
    st.sampled_from(
        [" ", "  ", " 7", " text/html", " 7 8 9 text/html", "7 ", "\x0c", "\x85", "\r", "\n", "x"]
    ),
    max_size=3,
).map("".join)


class TestIndexGrammar:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(line=_index_lines())
    @example(line="http://e.de/ 20110305120000 a.warc.gz -7 99 200 text/html")
    @example(line="http://e.de/ 00000229000000 a.warc.gz 7 99 200 text/html")
    @example(line="http://e.de/ 20110305120000 a b.warc.gz 0 99 200 text/html")
    @example(line="http://e.de/ 20110305120000 a b.warc.gz 0 99 200 text/html foo")
    def test_one_line_index_opens_if_and_only_if_from_line_accepts_it(
        self, tmp_path, monkeypatch, line
    ):
        monkeypatch.chdir(tmp_path)  # the WARC names are relative to it
        for name in _WARC_NAMES:
            Path(name).touch()
        if "\r" in line or "\n" in line or not line.strip():
            return  # not one line, or a blank one
        Path("one.cdx").write_text(line, encoding="utf-8")
        try:
            record = SnapshotRecord.from_line(line)
        except ValueError as exc:
            with pytest.raises(ValueError) as opened:
                ArchiveIndex.open("one.cdx")
            assert str(opened.value) == str(exc)
            return
        index = ArchiveIndex.open("one.cdx")
        assert (index.url_count, index.record_count) == (1, 1)
        assert index.resolve_snapshots(record.canonical_url) == [record]
        assert record.to_line() == line  # the grammar is what to_line writes

    @given(
        lines=st.lists(
            st.tuples(_AFFIXES, _index_lines(), _AFFIXES).map("".join), min_size=1, max_size=3
        )
    )
    @example(lines=["http://e.de/ 20110305120000 a b.warc.gz 0 99 200 text/html foo 7 8 9 x"])
    @example(lines=["\x85http://e.de/ 20110305120000 a  b.warc.gz 0 99 200 text/html\x0c"])
    def test_grammar_agrees_with_the_greedy_oracle(self, lines):
        text = "\n".join(lines)
        assert archive._INDEX_LINE.findall(text) == _GREEDY_INDEX_LINE.findall(text)
        for line in [text, *text.split("\n")]:
            match = archive._INDEX_LINE.fullmatch(line)
            oracle = _GREEDY_INDEX_LINE.fullmatch(line)
            assert (match and match.groups()) == (oracle and oracle.groups())

    @pytest.mark.parametrize("tail", ["7 99 200 text/html", "7 99 -200 text/html"])
    def test_grammar_matches_in_time_linear_in_the_warc_words(self, tail):
        def seconds(words):
            line = f"http://e.de/ 20110305120000 {' '.join(['7'] * words)} {tail}"
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                archive._INDEX_LINE.findall(line)
                archive._INDEX_LINE.fullmatch(line)
                best = min(best, time.perf_counter() - started)
            return best

        def too_slow(signum, frame):
            raise AssertionError("matching took over 10 s: the grammar backtracks over the words")

        # Backtracking nested over the words runs for minutes at these sizes;
        # the regex engine checks for signals, so the alarm ends it.
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            small, large = seconds(20_000), seconds(80_000)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # Linear cost reads about 4x for 4x the words.
        assert large < 8 * small

    def test_open_parses_no_timestamp(self, tmp_path, monkeypatch):
        pages = [
            {"url": f"http://e.de/{i}", "body": "x", "date_iso": f"2011-03-0{day}T00:00:00Z"}
            for i in range(4)
            for day in (2, 5)
        ]
        build_index([write_warc(tmp_path / "a.warc.gz", pages)], tmp_path / "index.cdx")
        calls = []
        monkeypatch.setattr(archive, "parse_ts14", lambda value: calls.append(value))
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        assert calls == [] and index.record_count == 8

    def test_lookup_decodes_only_the_requested_url(self, tmp_path, monkeypatch):
        pages = [
            {"url": f"http://e.de/{i}", "body": "x", "date_iso": f"2011-03-0{day}T00:00:00Z"}
            for i in range(4)
            for day in (5, 2)
        ]
        build_index([write_warc(tmp_path / "a.warc.gz", pages)], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        decoded = []
        from_line = SnapshotRecord.from_line

        def counting_from_line(line):
            decoded.append(line.split(" ")[0])
            return from_line(line)

        monkeypatch.setattr(SnapshotRecord, "from_line", counting_from_line)
        snapshots = index.resolve_snapshots("http://e.de/1")
        assert decoded == ["http://e.de/1"] * 2
        assert [s.capture_time for s in snapshots] == ["20110302000000", "20110305000000"]
        snapshots.clear()  # each call returns a list of its own
        assert len(index.resolve_snapshots("http://e.de/1")) == 2
        assert len(index.resolve_snapshots("HTTP://E.DE/1#x")) == 2
        assert index.resolve_snapshots("http://e.de/absent") == []
        assert decoded == ["http://e.de/1"] * 2  # decoded once, kept

    def test_concurrent_first_lookups_agree(self, tmp_path):
        pages = [
            {"url": f"http://e.de/{i}", "body": "x", "date_iso": f"2011-03-0{day}T00:00:00Z"}
            for i in range(40)
            for day in (5, 2)
        ]
        build_index([write_warc(tmp_path / "a.warc.gz", pages)], tmp_path / "index.cdx")
        reference = ArchiveIndex.open(tmp_path / "index.cdx")
        expected = {url: reference.resolve_snapshots(url) for url in reference.urls()}
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        results = []

        def look_up_all():
            results.append({url: index.resolve_snapshots(url) for url in expected})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=look_up_all) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 8


class TestResolveSnapshots:
    def test_absent_url_is_empty_list(self, tmp_path):
        write_warc(tmp_path / "a.warc.gz", [{"url": "http://e.de/1", "body": "x"}])
        build_index([tmp_path / "a.warc.gz"], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        assert index.resolve_snapshots("http://e.de/absent") == []

    def test_fragment_resolves_to_same_snapshots(self, tmp_path):
        write_warc(tmp_path / "a.warc.gz", [{"url": "http://e.de/page", "body": "x"}])
        build_index([tmp_path / "a.warc.gz"], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        assert index.resolve_snapshots("http://e.de/page#x") == index.resolve_snapshots(
            "http://e.de/page"
        )

    def test_other_spellings_resolve_to_the_canonical_key(self, tmp_path):
        write_warc(tmp_path / "a.warc.gz", [{"url": "http://e.de/r1", "body": "x"}])
        build_index([tmp_path / "a.warc.gz"], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        (snapshot,) = index.resolve_snapshots("http://e.de/r1")
        spellings = ("HTTP://E.DE/r1", "http://e.de:80/r1", "http://e.de/%72%31", "http://e.de/r1#x")
        for spelling in spellings:
            assert index.resolve_snapshots(spelling) == [snapshot]
        assert index.resolve_snapshots("http://e.de/R1") == []  # paths are case-sensitive
        assert index.resolve_snapshots("not a url") == []

    def test_canonical_keys_are_looked_up_without_canonicalizing(self, tmp_path, monkeypatch):
        write_warc(tmp_path / "a.warc.gz", [{"url": "http://e.de/r1", "body": "x"}])
        build_index([tmp_path / "a.warc.gz"], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        calls = []

        def counting_canonicalize(url):
            calls.append(url)
            return canonicalize_url(url)

        monkeypatch.setattr(archive, "canonicalize_url", counting_canonicalize)
        assert len(index.resolve_snapshots("http://e.de/r1")) == 1
        assert index.resolve_snapshots("http://e.de/absent") == []
        assert calls == ["http://e.de/absent"]

    def test_repeated_calls_identical(self, tmp_path):
        write_warc(
            tmp_path / "a.warc.gz",
            [
                {"url": "http://e.de/p", "body": "a", "date_iso": "2011-03-02T00:00:00Z"},
                {"url": "http://e.de/p", "body": "b", "date_iso": "2011-03-04T00:00:00Z"},
            ],
        )
        build_index([tmp_path / "a.warc.gz"], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        assert index.resolve_snapshots("http://e.de/p") == index.resolve_snapshots(
            "http://e.de/p"
        )

    def test_open_fails_when_warc_moved(self, tmp_path):
        path = write_warc(tmp_path / "a.warc.gz", [{"url": "http://e.de/1", "body": "x"}])
        build_index([path], tmp_path / "index.cdx")
        path.unlink()
        with pytest.raises(FileNotFoundError):
            ArchiveIndex.open(tmp_path / "index.cdx")


class TestFetchDocument:
    def test_payload_byte_identity(self, tmp_path):
        pages = [
            {"url": f"http://e.de/{i}", "body": f"payload number {i} ☃"}
            for i in range(10)
        ]
        path = write_warc(tmp_path / "a.warc.gz", pages)
        build_index([path], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        reference = {r["url"]: r["payload"] for r in reference_scan(path)}
        for url in index.urls():
            doc = fetch_document(index, index.resolve_snapshots(url)[0])
            assert hashlib.sha256(doc.body).hexdigest() == hashlib.sha256(
                reference[url]
            ).hexdigest()

    def test_exact_five_byte_payload(self, tmp_path):
        path = write_warc(tmp_path / "a.warc.gz", [{"url": "http://e.de/h", "body": "hello"}])
        build_index([path], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        doc = fetch_document(index, index.resolve_snapshots("http://e.de/h")[0])
        assert doc.body == b"hello"

    def test_corrupt_offset_is_hard_error(self, tmp_path):
        path = write_warc(tmp_path / "a.warc.gz", [{"url": "http://e.de/h", "body": "hello"}])
        build_index([path], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        snapshot = index.resolve_snapshots("http://e.de/h")[0]
        broken = SnapshotRecord(
            snapshot.canonical_url,
            snapshot.capture_time,
            snapshot.warc_file,
            snapshot.offset + 2,
            snapshot.length - 2,
        )
        with pytest.raises(MalformedRecord):
            fetch_document(index, broken)


# One page, and how a crawler may have stored it.
PAGE = (
    b"<html><body><h1>Flood</h1><p>The flood reached the old town.</p>"
    b'<a href="/next">next</a></body></html>'
)
HTML = b"Content-Type: text/html; charset=utf-8"


def _gzip(data):
    return gzip.compress(data, mtime=0)


def _deflate(data, wbits):
    comp = zlib.compressobj(6, zlib.DEFLATED, wbits)
    return comp.compress(data) + comp.flush()


def _chunked(pieces, ext=b"", trailer=b"", eol=b"\r\n"):
    """``pieces`` as a chunked body: each a sized chunk, then the last chunk and trailer.

    ``eol`` ends the size lines and the trailer; chunk data always ends in CRLF.
    """
    body = b"".join(b"%x%s%s%s\r\n" % (len(piece), ext, eol, piece) for piece in pieces)
    return body + b"0" + ext + eol + trailer + eol


def _pieces(data, size):
    return [data[i : i + size] for i in range(0, len(data), size)]


def _fetch_stored(tmp_path, http_headers, body):
    """The document of a one-page archive whose record holds ``http_headers`` and ``body``."""
    page = {"url": "http://a.test/flood", "http_headers": http_headers, "body": body}
    path = write_warc(tmp_path / "coded.warc.gz", [page])
    summary = build_index([path], tmp_path / "index.cdx")
    assert summary.record_count == 1
    index = ArchiveIndex.open(tmp_path / "index.cdx")
    return fetch_document(index, index.resolve_snapshots("http://a.test/flood")[0])


class TestPayloadCodings:
    @pytest.mark.parametrize(
        "http_headers, body",
        [
            ([], PAGE),
            ([b"Content-Encoding: identity"], PAGE),
            ([b"Content-Encoding: gzip"], _gzip(PAGE)),
            ([b"Content-Encoding: X-Gzip"], _gzip(PAGE)),
            ([b"Content-Encoding: deflate"], _deflate(PAGE, zlib.MAX_WBITS)),
            ([b"Content-Encoding: deflate"], _deflate(PAGE, -zlib.MAX_WBITS)),
            ([b"Content-Encoding: gzip, deflate"], _deflate(_gzip(PAGE), zlib.MAX_WBITS)),
            ([b"Content-Encoding: gzip", b"Content-Encoding: deflate"],
             _deflate(_gzip(PAGE), -zlib.MAX_WBITS)),
            # 20-byte chunks: a boundary falls inside the <a> tag.
            ([b"Transfer-Encoding: chunked"], _chunked(_pieces(PAGE, 20))),
            ([b"Transfer-Encoding: chunked"],
             _chunked(_pieces(PAGE, 7), ext=b' ; name="v";x', trailer=b"Expires: 0\r\nX-T: 1\r\n")),
            ([b"Transfer-Encoding: identity, Chunked"],
             _chunked(_pieces(PAGE, 50), trailer=b"X-T: 1\n", eol=b"\n")),
            ([b"Content-Encoding: gzip", b"Transfer-Encoding: chunked"],
             _chunked(_pieces(_gzip(PAGE), 16))),
        ],
        ids=[
            "plain", "identity", "gzip", "x-gzip", "deflate", "raw-deflate", "gzip-deflate",
            "two-headers", "chunked", "chunk-extension-and-trailer", "chunked-bare-lf",
            "chunked-gzip",
        ],
    )
    def test_decoded_body_scans_like_the_plain_page(self, tmp_path, http_headers, body):
        document = _fetch_stored(tmp_path, [HTML, *http_headers], body)
        assert document.body == PAGE
        assert document.scanned().text == "Flood The flood reached the old town. next"
        assert document.outlinks == ("http://a.test/next",)

    @pytest.mark.parametrize(
        "http_headers, body",
        [
            ([b"Content-Encoding: br"], PAGE),
            ([b"Content-Encoding: zstd"], PAGE),
            ([b"Content-Encoding: compress"], PAGE),
            ([b"Content-Encoding: gzip, rot13"], _gzip(PAGE)),
            ([b"Transfer-Encoding: gzip"], _gzip(PAGE)),
            ([b"Transfer-Encoding: chunked, gzip"], _gzip(_chunked([PAGE]))),
            ([b"Content-Encoding: gzip"], PAGE),
            ([b"Content-Encoding: gzip"], _gzip(PAGE)[:-9]),
            ([b"Content-Encoding: deflate"], PAGE),
            ([b"Transfer-Encoding: chunked"], PAGE),
            ([b"Transfer-Encoding: chunked"], _chunked([PAGE])[:-2]),
            ([b"Transfer-Encoding: chunked"], _chunked([PAGE]) + b"more"),
            ([b"Transfer-Encoding: chunked"], _chunked([PAGE]).replace(PAGE, PAGE[:-1])),
            ([b"Transfer-Encoding: chunked"], _chunked([PAGE], eol=b"\n").replace(b"\r", b"")),
            ([b"Transfer-Encoding: chunked"], _chunked([PAGE]).replace(PAGE + b"\r\n", PAGE + b"--")),
            ([b"Transfer-Encoding: chunked"], b"%x\r\n" % (len(PAGE) + 1) + PAGE),
        ],
        ids=[
            "br", "zstd", "compress", "unknown", "gzip-transfer-coding", "chunked-not-last",
            "gzip-not-gzipped", "gzip-truncated", "deflate-not-deflated", "no-chunk-size",
            "no-trailer-end", "bytes-after-the-body", "short-chunk", "chunk-data-ends-in-lf",
            "chunk-data-ends-in-other-bytes",
            "truncated-chunk",
        ],
    )
    def test_undecodable_body_is_a_malformed_record(self, tmp_path, http_headers, body):
        with pytest.raises(MalformedRecord):
            _fetch_stored(tmp_path, [HTML, *http_headers], body)

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=60),
        links=st.lists(st.sampled_from(["/a", "b/c", "http://b.test/d?e=1"]), max_size=4),
        cuts=st.lists(st.integers(min_value=1, max_value=40), max_size=30),
    )
    def test_chunked_gzipped_page_scans_like_the_plain_page(self, tmp_path, text, links, cuts):
        page = page_html(text, links).encode("utf-8")
        coded, pieces = _gzip(page), []
        for cut in cuts:
            piece, coded = coded[:cut], coded[cut:]
            if piece:
                pieces.append(piece)
        if coded:
            pieces.append(coded)
        plain = _fetch_stored(tmp_path, [HTML], page)
        decoded = _fetch_stored(
            tmp_path,
            [HTML, b"Content-Encoding: gzip", b"Transfer-Encoding: chunked"],
            _chunked(pieces),
        )
        assert decoded.body == page
        assert decoded.scanned() == plain.scanned()
        assert decoded.outlinks == plain.outlinks

    def test_header_lines_end_only_at_a_line_end(self, tmp_path):
        pages = [
            # The raw UTF-8 of Å is C3 85, and U+0085 is a line break to str.splitlines().
            {
                "url": "http://a.test/1",
                "http_headers": ["X-Name: Å Content-Type: text/plain".encode(), HTML],
                "body": PAGE,
            },
            {
                "url": "http://a.test/2",
                "http_headers": [HTML, b"X-Note: a\x0bContent-Encoding: br"],
                "body": PAGE,
            },
        ]
        path = write_warc(tmp_path / "a.warc.gz", pages)
        summary = build_index([path], tmp_path / "index.cdx")
        assert summary.record_count == 2
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        for page in pages:
            document = fetch_document(index, index.resolve_snapshots(page["url"])[0])
            assert warc.find_header(document.headers, "Content-Type") == "text/html; charset=utf-8"
            assert warc.find_header(document.headers, "Content-Encoding") is None
            assert document.body == PAGE

    @pytest.mark.parametrize(
        "http_head, body",
        [
            # The head ends at the first empty line, not at the body's first CRLF one.
            (
                b"HTTP/1.1 200 OK\nContent-Type: text/html\n\n",
                b"<html><title>T</title>\r\n\r\n<p>body</p>",
            ),
            # LF then CRLF is an empty line too.
            (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\n\r\n", b"<p>x</p>"),
        ],
        ids=["bare-lf-head-before-a-crlf-body", "lf-then-crlf"],
    )
    def test_the_head_ends_at_its_first_empty_line(self, tmp_path, http_head, body):
        page = {"url": "http://a.test/1", "http_head": http_head, "body": body}
        path = write_warc(tmp_path / "a.warc.gz", [page])
        summary = build_index([path], tmp_path / "index.cdx")
        assert summary.record_count == 1
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        document = fetch_document(index, index.resolve_snapshots("http://a.test/1")[0])
        assert document.headers == [("Content-Type", "text/html")]
        assert document.body == body

    def test_a_head_that_never_ends_or_is_not_http_is_left_out(self, tmp_path):
        heads = [
            b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n",  # no empty line
            b"ICY 200 OK\r\nContent-Type: text/html\r\n\r\n",
        ]
        pages = [
            {"url": f"http://a.test/{i}", "http_head": head, "body": b""}
            for i, head in enumerate(heads)
        ]
        summary = build_index([write_warc(tmp_path / "a.warc.gz", pages)], tmp_path / "index.cdx")
        assert summary.record_count == 0
        assert summary.left_out["bad HTTP head"] == 2


class TestWriteCollection:
    def _indexed(self, tmp_path, pages):
        path = write_warc(tmp_path / "src.warc.gz", pages)
        build_index([path], tmp_path / "index.cdx")
        return ArchiveIndex.open(tmp_path / "index.cdx")

    def test_round_trip_reindexes_to_same_count(self, tmp_path):
        index = self._indexed(
            tmp_path,
            [
                {"url": "http://e.de/1", "body": "one"},
                {"url": "http://e.de/2", "body": "two"},
            ],
        )
        docs = [
            (fetch_document(index, index.resolve_snapshots(url)[0]), 0.5)
            for url in ["http://e.de/1", "http://e.de/2"]
        ]
        manifest = write_collection(docs, tmp_path / "out")
        summary = build_index([manifest.warc_path], tmp_path / "out" / "re.cdx")
        assert summary.record_count == 2 == manifest.record_count

    def test_capture_times_preserved_verbatim(self, tmp_path):
        index = self._indexed(
            tmp_path,
            [{"url": "http://e.de/1", "body": "one", "date_iso": "2001-07-02T03:04:05Z"}],
        )
        doc = fetch_document(index, index.resolve_snapshots("http://e.de/1")[0])
        manifest = write_collection([(doc, 1.0)], tmp_path / "out")
        build_index([manifest.warc_path], tmp_path / "out" / "re.cdx")
        re_index = ArchiveIndex.open(tmp_path / "out" / "re.cdx")
        assert re_index.resolve_snapshots("http://e.de/1")[0].capture_time == "20010702030405"

    def test_edge_list_restricted_to_collection(self, tmp_path):
        index = self._indexed(
            tmp_path,
            [
                {
                    "url": "http://e.de/src",
                    "body": page_html(
                        "text", ["/in", "http://other.de/out", "http://e.de/gone"]
                    ),
                },
                {"url": "http://e.de/in", "body": "inside"},
            ],
        )
        docs = [
            (fetch_document(index, index.resolve_snapshots(url)[0]), 0.1)
            for url in ["http://e.de/src", "http://e.de/in"]
        ]
        manifest = write_collection(docs, tmp_path / "out")
        edges = manifest.edges_path.read_text().splitlines()
        assert edges == ["src_url,dst_url", "http://e.de/src,http://e.de/in"]
        manifest_rows = manifest.manifest_path.read_text().splitlines()
        assert manifest_rows[1].startswith("http://e.de/src,") and manifest_rows[1].endswith(",1")

    def test_gzip_spans_copied_and_plain_spans_compressed(self, tmp_path):
        zipped = write_warc(tmp_path / "a.warc.gz", [{"url": "http://e.de/z", "body": "zipped"}])
        plain = write_warc(
            tmp_path / "b.warc", [{"url": "http://e.de/p", "body": "plain"}], compress=False
        )
        build_index([zipped, plain], tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        snapshots = [index.resolve_snapshots(url)[0] for url in ("http://e.de/z", "http://e.de/p")]
        spans = [Path(s.warc_file).read_bytes()[s.offset : s.offset + s.length] for s in snapshots]
        manifest = write_collection(
            [(fetch_document(index, s), 0.5) for s in snapshots], tmp_path / "out"
        )
        written = manifest.warc_path.read_bytes()
        records = warc.iter_raw_records(manifest.warc_path)
        members = [written[r.offset : r.offset + r.length] for r in records]
        assert members[0] == spans[0]
        assert members[1][:2] == b"\x1f\x8b" and gzip.decompress(members[1]) == spans[1]
        summary = build_index([manifest.warc_path], tmp_path / "out" / "re.cdx")
        assert summary.record_count == 2 == manifest.record_count

    def test_empty_stream(self, tmp_path):
        manifest = write_collection([], tmp_path / "out")
        assert manifest.record_count == 0
        summary = build_index([manifest.warc_path], tmp_path / "out" / "re.cdx")
        assert summary.record_count == 0


class TestIndexScaling:
    def test_lookup_latency_sublinear(self, tmp_path):
        def build(n, name):
            pages = [{"url": f"http://e.de/{i}", "body": "x"} for i in range(n)]
            write_warc(tmp_path / f"{name}.warc.gz", pages)
            build_index([tmp_path / f"{name}.warc.gz"], tmp_path / f"{name}.cdx")
            return ArchiveIndex.open(tmp_path / f"{name}.cdx")

        small = build(300, "small")
        large = build(3000, "large")

        def median_lookup_time(index, n):
            samples = []
            for _ in range(5):
                t0 = time.perf_counter()
                for i in range(0, n, 7):
                    index.resolve_snapshots(f"http://e.de/{i % n}")
                samples.append(time.perf_counter() - t0)
            return sorted(samples)[len(samples) // 2]

        t_small = median_lookup_time(small, 300)
        t_large = median_lookup_time(large, 300)
        # Keyed lookup: 10x records must not double per-lookup latency.
        assert t_large <= 2.0 * t_small + 1e-3
