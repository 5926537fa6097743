import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eventcrawl import warc
from eventcrawl.warc import (
    MalformedRecord,
    WarcWriter,
    build_response_record,
    gzip_member,
    iter_raw_records,
    parse_http_response,
    read_raw_span,
    read_record_span,
)

from conftest import write_warc
from oracles import whole_file_scan


def _records(path):
    return [r for r in iter_raw_records(path) if not isinstance(r, MalformedRecord)]


def test_round_trip_compressed(tmp_path):
    path = write_warc(tmp_path / "a.warc.gz", [{"url": "http://e.de/x", "body": "hello"}])
    records = _records(path)
    assert len(records) == 1
    record = records[0]
    assert record.record_type == "response"
    assert record.target_uri == "http://e.de/x"
    status, headers, payload = parse_http_response(record.block)
    assert status == 200
    assert payload == b"hello"


def test_round_trip_uncompressed(tmp_path):
    path = write_warc(
        tmp_path / "a.warc", [{"url": "http://e.de/x", "body": "hi"}], compress=False
    )
    records = _records(path)
    assert len(records) == 1
    assert parse_http_response(records[0].block)[2] == b"hi"


def test_mixed_compression_in_one_file(tmp_path):
    raw1 = build_response_record(
        "http://e.de/1", "2011-03-05T12:00:00Z", b"one", record_id="urn:uuid:1"
    )
    raw2 = build_response_record(
        "http://e.de/2", "2011-03-05T12:00:00Z", b"two", record_id="urn:uuid:2"
    )
    path = tmp_path / "mixed.warc.gz"
    path.write_bytes(gzip_member(raw1) + raw2)
    uris = [r.target_uri for r in _records(path)]
    assert uris == ["http://e.de/1", "http://e.de/2"]


def test_spans_allow_random_access(tmp_path):
    path = tmp_path / "b.warc.gz"
    with WarcWriter(path) as writer:
        span1 = writer.write_response(
            "http://e.de/1", "2011-03-05T12:00:00Z", b"first", record_id="urn:uuid:1"
        )
        span2 = writer.write_response(
            "http://e.de/2", "2011-03-06T12:00:00Z", b"second", record_id="urn:uuid:2"
        )
    record = read_record_span(path, *span2)
    assert parse_http_response(record.block)[2] == b"second"
    record = read_record_span(path, *span1)
    assert parse_http_response(record.block)[2] == b"first"


def test_raw_span_is_relocatable(tmp_path):
    path = tmp_path / "c.warc.gz"
    with WarcWriter(path) as writer:
        span = writer.write_response(
            "http://e.de/1", "2011-03-05T12:00:00Z", b"payload", record_id="urn:uuid:9"
        )
    blob = read_raw_span(path, *span)
    moved = tmp_path / "moved.warc.gz"
    moved.write_bytes(blob)
    assert parse_http_response(_records(moved)[0].block)[2] == b"payload"


def test_offset_mid_record_is_corrupt(tmp_path):
    path = tmp_path / "d.warc.gz"
    with WarcWriter(path) as writer:
        offset, length = writer.write_response(
            "http://e.de/1", "2011-03-05T12:00:00Z", b"data", record_id="urn:uuid:1"
        )
    with pytest.raises(MalformedRecord):
        read_record_span(path, offset + 3, length - 3)


def test_malformed_record_skipped_and_scan_resyncs(tmp_path):
    good1 = gzip_member(
        build_response_record(
            "http://e.de/1", "2011-03-05T12:00:00Z", b"one", record_id="urn:uuid:1"
        )
    )
    good2 = gzip_member(
        build_response_record(
            "http://e.de/2", "2011-03-05T12:00:00Z", b"two", record_id="urn:uuid:2"
        )
    )
    path = tmp_path / "e.warc.gz"
    path.write_bytes(good1 + b"\x1f\x8bJUNKJUNK" + good2)
    items = list(iter_raw_records(path))
    errors = [i for i in items if isinstance(i, MalformedRecord)]
    records = [i for i in items if not isinstance(i, MalformedRecord)]
    assert len(errors) >= 1
    assert [r.target_uri for r in records] == ["http://e.de/1", "http://e.de/2"]


def test_gzip_member_is_deterministic():
    raw = build_response_record(
        "http://e.de/1", "2011-03-05T12:00:00Z", b"abc" * 100, record_id="urn:uuid:1"
    )
    assert gzip_member(raw) == gzip_member(raw)


def test_truncated_file_reports_error(tmp_path):
    raw = gzip_member(
        build_response_record(
            "http://e.de/1", "2011-03-05T12:00:00Z", b"one", record_id="urn:uuid:1"
        )
    )
    path = tmp_path / "f.warc.gz"
    path.write_bytes(raw[: len(raw) // 2])
    items = list(iter_raw_records(path))
    assert len(items) == 1 and isinstance(items[0], MalformedRecord)


def _record(i, payload, version="WARC/1.0"):
    return build_response_record(
        f"http://e.de/{i}",
        "2011-03-05T12:00:00Z",
        payload,
        record_id=f"urn:uuid:{i}",
        warc_version=version,
    )


def test_content_length_past_end_of_file_is_reported_not_read(tmp_path):
    path = tmp_path / "g.warc"
    head = b"WARC/1.0\r\nWARC-Type: response\r\nContent-Length: 1000000000000000\r\n\r\n"
    path.write_bytes(head + b"short" + _record(1, b"next"))
    error, *records = iter_raw_records(path)
    assert isinstance(error, MalformedRecord) and error.offset == 0
    assert str(error).startswith("record block extends past end of file")
    assert [r.target_uri for r in records] == ["http://e.de/1"]


@pytest.mark.parametrize(
    "prefix, compress, message",
    [
        (b"-", True, "bad Content-Length"),
        (b"-", False, "bad Content-Length"),
        # A plain record this long runs past the end of the file, tested above.
        (b"9", True, "record block truncated"),
    ],
    ids=["negative-gzip", "negative-plain", "gzip-block-shorter"],
)
def test_content_length_that_does_not_fit_the_block_is_reported(
    tmp_path, prefix, compress, message
):
    # The prefix goes before the digits of the WARC header's Content-Length.
    bad = _record(1, b"one").replace(b"Content-Length: ", b"Content-Length: " + prefix, 1)
    path = tmp_path / "h.warc.gz"
    path.write_bytes((gzip_member(bad) if compress else bad) + gzip_member(_record(2, b"two")))
    error, *records = iter_raw_records(path)
    assert isinstance(error, MalformedRecord) and error.offset == 0
    assert str(error).startswith(message)
    assert [r.target_uri for r in records] == ["http://e.de/2"]


# Byte strings that the reader searches for or that end its parsing early.
_FRAGMENTS = st.sampled_from(
    [
        b"\x1f\x8b",
        b"\x1f",
        b"\x8b",
        b"WARC/",
        b"WARC/1.0\r\n",
        b"\r\n",
        b"\r\n\r\n",
        b"Content-Length: 3\r\n",
    ]
)
_BYTES = st.lists(st.one_of(_FRAGMENTS, st.binary(max_size=12)), max_size=6).map(b"".join)


@st.composite
def _warc_files(draw):
    """WARC bytes mixing gzip and plain records, CRLF padding, junk and a truncated tail."""
    parts = []
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["gzip", "plain", "padding", "junk", "corrupt"]))
        if kind == "padding":
            parts.append(b"\r\n" * draw(st.integers(1, 3)))
        elif kind == "junk":
            parts.append(draw(_BYTES))
        else:
            raw = _record(i, draw(_BYTES), draw(st.sampled_from(["WARC/1.0", "WARC/1.1"])))
            if kind == "plain":
                parts.append(raw)
            else:
                member = bytearray(gzip_member(raw, level=draw(st.sampled_from([0, 6]))))
                if kind == "corrupt":
                    at = draw(st.integers(2, len(member) - 1))
                    member[at] ^= draw(st.integers(1, 255))
                parts.append(bytes(member))
    data = b"".join(parts)
    return data[: len(data) - draw(st.integers(0, min(len(data), 40)))]


def _outcomes(items):
    return [
        (item.offset, str(item)) if isinstance(item, MalformedRecord) else item
        for item in items
    ]


@pytest.mark.parametrize("chunk", [2, 7, 64, 1 << 16])
@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_warc_files())
def test_chunked_scan_matches_whole_file_scan(tmp_path, chunk, data):
    path = tmp_path / "x.warc.gz"
    path.write_bytes(data)
    with mock.patch.object(warc, "_CHUNK", chunk):
        scanned = list(iter_raw_records(path))
    assert _outcomes(scanned) == _outcomes(whole_file_scan(path))


def _scan_peak_bytes(path):
    tracemalloc.start()
    try:
        for _item in iter_raw_records(path):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_does_not_grow_with_record_count(tmp_path):
    rng = random.Random(0)
    # Incompressible payloads make the file as large as the records.
    pair = gzip_member(_record(0, rng.randbytes(4000))) + _record(1, rng.randbytes(4000))
    small, large = tmp_path / "small.warc.gz", tmp_path / "large.warc.gz"
    small.write_bytes(pair * 20)
    large.write_bytes(pair * 200)
    assert _scan_peak_bytes(large) <= 1.2 * _scan_peak_bytes(small) + warc._CHUNK


def test_scan_hands_the_decompressor_each_member_and_at_most_a_little_more(tmp_path):
    rng = random.Random(0)
    records = 300
    path = tmp_path / "many.warc.gz"
    path.write_bytes(b"".join(gzip_member(_record(i, rng.randbytes(200))) for i in range(records)))
    fed = []
    make = warc.zlib.decompressobj

    class Counting:
        def __init__(self, *args, **kwargs):
            self._decomp = make(*args, **kwargs)

        def decompress(self, data):
            fed.append(len(data))
            return self._decomp.decompress(data)

        def __getattr__(self, name):
            return getattr(self._decomp, name)

    with mock.patch.object(warc.zlib, "decompressobj", Counting):
        assert len(_records(path)) == records
    # Each member is read in bounded pieces, not with whatever the file's buffer holds.
    assert sum(fed) <= records * 8192 + path.stat().st_size
