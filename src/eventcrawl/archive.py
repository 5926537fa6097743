"""Archive store: WARC indexing, snapshot resolution, payload access.

The index is a sorted plain-text file, one line per indexed capture::

    canonical_url SP timestamp14 SP warc_file SP offset SP length SP status SP media_type

Only HTTP 200 responses with an HTML media type are indexed. Opening an
index checks every line against one grammar but decodes none; a lookup
decodes its URL's lines on first use and keeps the records. Loaded
indexes are otherwise immutable and safe for concurrent readers: two
first lookups of one URL may both decode it, into equal records. Lookups
are dictionary-backed, independent of archive size.
"""

from __future__ import annotations

import csv
import logging
import operator
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, TextIO

from . import warc
from .htmlscan import ScannedPage, decode_html_bytes, outlinks, scan_html
from .timeutil import TS14_PATTERN, format_ts14, parse_iso8601, parse_ts14
from .urlnorm import CanonicalizationError, canonicalize_url

if TYPE_CHECKING:  # pragma: no cover
    from .crawler import CollectionItem

__all__ = [
    "ArchiveIndex",
    "ArchivedDocument",
    "CollectionManifest",
    "IndexSummary",
    "SnapshotRecord",
    "build_index",
    "fetch_document",
    "write_collection",
]

logger = logging.getLogger(__name__)

# An index line as to_line writes it, in a file read with universal
# newlines. Only the warc_file may hold a space; integers have no sign,
# underscore or leading zero. Groups: the line, its URL and its warc_file.
_INT = "(?:0|[1-9][0-9]*)"
_INDEX_LINE = re.compile(
    rf"(?m)^(([^ \r\n]*) {TS14_PATTERN} ([^\r\n]*) {_INT} {_INT} {_INT} [^ \r\n]*)$"
)


@dataclass(frozen=True, order=True, slots=True)
class SnapshotRecord:
    """One archived capture of a URL and where its bytes live."""

    canonical_url: str
    capture_time: str  # 14-digit YYYYMMDDhhmmss, UTC
    warc_file: str
    offset: int
    length: int
    http_status: int = 200
    media_type: str = "text/html"
    # capture_time in seconds since epoch, parsed once, by the first
    # capture_epoch(). Derived, so left out of ==, hash and order.
    epoch: float | None = field(default=None, compare=False, repr=False)

    def capture_epoch(self) -> float:
        if self.epoch is None:
            object.__setattr__(self, "epoch", parse_ts14(self.capture_time).timestamp())
        return self.epoch

    def to_line(self) -> str:
        return (
            f"{self.canonical_url} {self.capture_time} {self.warc_file} "
            f"{self.offset} {self.length} {self.http_status} {self.media_type}"
        )

    @classmethod
    def from_line(cls, line: str) -> "SnapshotRecord":
        parts = line.split(" ")
        if _INDEX_LINE.fullmatch(line) is None:
            # The error of the first field that does not read, else the line's.
            if len(parts) >= 7:
                parse_ts14(parts[1])
                for value in parts[-4:-1]:
                    int(value)
            raise ValueError(f"bad index line: {line!r}")
        # warc_file may contain spaces; everything else is space-free.
        url, ts = parts[0], parts[1]
        offset, length, status, media_type = parts[-4:]
        warc_file = " ".join(parts[2:-4])
        return cls(url, ts, warc_file, int(offset), int(length), int(status), media_type)


# The order of an index's lines, and of one URL's captures in a lookup.
_CAPTURE_ORDER = operator.attrgetter("canonical_url", "capture_time", "warc_file", "offset")


@dataclass
class ArchivedDocument:
    """A fetched snapshot: HTTP headers plus the byte-exact payload."""

    snapshot: SnapshotRecord
    headers: list[tuple[str, str]]
    body: bytes
    _scanned: ScannedPage | None = field(default=None, repr=False, compare=False)

    def declared_charset(self) -> str | None:
        content_type = warc.find_header(self.headers, "Content-Type") or ""
        for part in content_type.split(";")[1:]:
            key, sep, value = part.partition("=")
            if sep and key.strip().lower() == "charset":
                return value.strip().strip("\"'")
        return None

    def scanned(self) -> ScannedPage:
        """Parse the HTML body once; later calls reuse the result."""
        if self._scanned is None:
            html = decode_html_bytes(self.body, self.declared_charset())
            self._scanned = scan_html(html)
        return self._scanned

    @property
    def outlinks(self) -> tuple[str, ...]:
        """Canonical link targets of the scanned page, first-occurrence order."""
        return tuple(outlinks(self.scanned(), self.snapshot.canonical_url))


# Why _index_record leaves a readable record out of the index, in report order.
_LEFT_OUT_REASONS = (
    "not a response",
    "no URI or date",
    "bad date",
    "bad HTTP head",
    "not 200",
    "not HTML",
    "not canonicalizable",
)


@dataclass(frozen=True)
class IndexSummary:
    url_count: int
    record_count: int
    skipped: int = 0  # records that could not be read as WARC
    left_out: dict[str, int] = field(default_factory=dict)  # reason -> readable records


class ArchiveIndex:
    """URL -> snapshots lookup over one or more WARC files.

    Each URL maps to its undecoded index line (a list of them if it has
    several captures) until its first lookup, and to its sorted records
    after it.
    """

    def __init__(self, entries: dict[str, _Entry], record_count: int):
        self._entries = entries
        self.url_count = len(entries)
        self.record_count = record_count

    @classmethod
    def open(cls, index_path: str | Path) -> "ArchiveIndex":
        """Load an index file; verifies every line and that every referenced WARC exists."""
        index_path = Path(index_path)
        text = index_path.read_text(encoding="utf-8")
        found = _INDEX_LINE.findall(text)
        if len(found) != text.count("\n") + (not text.endswith("\n")):
            # A blank line, or one that breaks the grammar: from_line says why.
            for line in text.split("\n"):
                if line.strip() and _INDEX_LINE.fullmatch(line) is None:
                    SnapshotRecord.from_line(line)
        entries: dict[str, _Entry] = {}
        warc_files: set[str] = set()
        for line, url, warc_file in found:
            warc_files.add(warc_file)
            entry = entries.get(url)
            if entry is None:
                entries[url] = line
            elif isinstance(entry, str):
                entries[url] = [entry, line]
            else:
                entry.append(line)
        missing = sorted(f for f in warc_files if not Path(f).is_file())
        if missing:
            raise FileNotFoundError(f"index references missing WARC files: {missing}")
        return cls(entries, len(found))

    def resolve_snapshots(self, url: str) -> list[SnapshotRecord]:
        """All snapshots of a URL, ascending capture time; [] if absent.

        Every key is a ``canonicalize_url`` result, and canonicalizing is
        idempotent, so a URL that is a key is looked up as it is; only
        other spellings are canonicalized first.
        """
        entry = self._entries.get(url)
        if entry is None:
            try:
                url = canonicalize_url(url)
            except CanonicalizationError:
                return []
            entry = self._entries.get(url)
            if entry is None:
                return []
        if not isinstance(entry, tuple):
            entry = self._entries[url] = _decode(entry)
        return list(entry)

    def urls(self) -> Iterator[str]:
        return iter(self._entries)


# An index entry: a URL's one line, its several lines, or its decoded records.
_Entry = str | list[str] | tuple[SnapshotRecord, ...]


def _decode(entry: str | list[str]) -> tuple[SnapshotRecord, ...]:
    if isinstance(entry, str):
        return (SnapshotRecord.from_line(entry),)
    return tuple(sorted(map(SnapshotRecord.from_line, entry), key=_CAPTURE_ORDER))


_HTML_TYPES = ("text/html", "application/xhtml")


def _is_html(media_type: str) -> bool:
    return any(marker in media_type for marker in _HTML_TYPES)


def build_index(
    warc_paths: Iterable[str | Path], index_path: str | Path
) -> IndexSummary:
    """Scan WARC files and write the sorted lookup index.

    Indexes HTTP 200 HTML responses only. Malformed records are skipped
    and tallied, and every other record left out is tallied by its
    reason; an unreadable file aborts the build. A path holding a line
    break raises ValueError, since an index line could not hold it.
    """
    records: list[SnapshotRecord] = []
    skipped = 0
    left_out = dict.fromkeys(_LEFT_OUT_REASONS, 0)
    for path in warc_paths:
        path = Path(path)
        resolved = str(path.resolve())
        if "\n" in resolved or "\r" in resolved:
            raise ValueError(f"WARC path holds a line break: {resolved!r}")
        for item in warc.iter_raw_records(path):
            if isinstance(item, warc.MalformedRecord):
                logger.warning("skipping malformed record: %s", item)
                skipped += 1
                continue
            record = _index_record(item, resolved)
            if isinstance(record, str):
                left_out[record] += 1
            else:
                records.append(record)

    records.sort(key=_CAPTURE_ORDER)
    with open_replacing(index_path) as handle:
        for record in records:
            handle.write(record.to_line() + "\n")
    url_count = len({r.canonical_url for r in records})
    return IndexSummary(
        url_count=url_count, record_count=len(records), skipped=skipped, left_out=left_out
    )


def _index_record(record: warc.RawRecord, warc_file: str) -> SnapshotRecord | str:
    """The record's index entry, or the reason (from _LEFT_OUT_REASONS) it has none."""
    if record.record_type != "response":
        return "not a response"
    uri = record.target_uri
    date = warc.find_header(record.headers, "WARC-Date")
    if not uri or not date:
        return "no URI or date"
    try:
        capture = format_ts14(parse_iso8601(date))
    except ValueError:
        return "bad date"
    try:
        status, headers, _payload = warc.parse_http_response(record.block)
    except warc.MalformedRecord:
        return "bad HTTP head"
    if status != 200:
        return "not 200"
    content_type = warc.find_header(headers, "Content-Type") or ""
    # One whitespace-free token: index lines are space-separated.
    media_type = next(iter(content_type.split(";")[0].lower().split()), "unknown")
    if not _is_html(media_type):
        return "not HTML"
    # Canonicalize last: it costs more than every check above.
    try:
        canonical = canonicalize_url(uri)
    except CanonicalizationError:
        return "not canonicalizable"
    return SnapshotRecord(
        canonical_url=canonical,
        capture_time=capture,
        warc_file=warc_file,
        offset=record.offset,
        length=record.length,
        http_status=status,
        media_type=media_type,
    )


def fetch_document(index: ArchiveIndex, snapshot: SnapshotRecord) -> ArchivedDocument:
    """Read the snapshot's record and return headers plus exact payload.

    Raises :class:`warc.MalformedRecord` (with file and offset) if the
    stored record is truncated or corrupt.
    """
    record = warc.read_record_span(snapshot.warc_file, snapshot.offset, snapshot.length)
    _status, headers, payload = warc.parse_http_response(record.block)
    return ArchivedDocument(snapshot=snapshot, headers=headers, body=payload)


@dataclass(frozen=True)
class CollectionManifest:
    warc_path: Path
    manifest_path: Path
    edges_path: Path
    record_count: int
    edge_count: int


def write_collection(
    entries: Iterable[tuple["CollectionItem | ArchivedDocument", float]],
    out_path: str | Path,
) -> CollectionManifest:
    """Materialize an extracted collection under ``out_path``.

    Each entry carries a ``snapshot`` and its canonical ``outlinks``, as
    a crawl's :class:`~eventcrawl.crawler.CollectionItem` or an
    :class:`ArchivedDocument` does. Writes the chosen snapshots verbatim
    (original record bytes, capture timestamps untouched) into
    ``collection.warc.gz``, plus a manifest CSV (url, capture_time,
    relevance, out_degree) and the edge list of links retained within
    the collection.
    """
    out_dir = Path(out_path)
    warc_path = out_dir / "collection.warc.gz"
    manifest_path = out_dir / "manifest.csv"
    edges_path = out_dir / "edges.csv"

    items = list(entries)
    member_urls = {entry.snapshot.canonical_url for entry, _ in items}
    edges: list[tuple[str, str]] = []
    manifest_rows: list[list] = []

    # The WARC first: only its copy reads archive bytes, and a failure there changes no file.
    with replacing(warc_path) as temp_path, warc.WarcWriter(temp_path, compress=True) as writer:
        for entry, relevance in items:
            snapshot = entry.snapshot
            raw = warc.read_raw_span(snapshot.warc_file, snapshot.offset, snapshot.length)
            writer.write_record_bytes(raw)
            targets = [target for target in entry.outlinks if target in member_urls]
            manifest_rows.append(
                [snapshot.canonical_url, snapshot.capture_time, repr(relevance), len(targets)]
            )
            edges.extend((snapshot.canonical_url, target) for target in targets)

    write_csv(manifest_path, ["url", "capture_time", "relevance", "out_degree"], manifest_rows)
    write_csv(edges_path, ["src_url", "dst_url"], edges)

    return CollectionManifest(
        warc_path=warc_path,
        manifest_path=manifest_path,
        edges_path=edges_path,
        record_count=len(items),
        edge_count=len(edges),
    )


@contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """Yield a temp path beside ``path``; move it onto ``path`` if the block succeeds.

    Every file eventcrawl writes goes through here, so a reader sees the
    old file or the new one, never a partial file. The temp file is
    ``NAME.PID.tmp``; on an exception it is removed and the error re-raised.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp_path = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        yield temp_path
        os.replace(temp_path, path)
    except BaseException:
        temp_path.unlink(missing_ok=True)
        raise


@contextmanager
def open_replacing(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle, without newline translation, on :func:`replacing`'s temp file."""
    with replacing(path) as temp, open(temp, "w", encoding="utf-8", newline="") as handle:
        yield handle


def write_csv(path: str | Path, header: list[str], rows: Iterable, lineterminator="\r\n") -> None:
    """Write a header row and ``rows`` as quoted CSV, replacing ``path`` as a whole.

    Rows are formed with ``\\r\\n`` ends and written with ``lineterminator``:
    before Python 3.13, ``csv`` quotes a field holding ``\\r`` or ``\\n`` only
    if the line terminator holds it, and a reader splits an unquoted one.
    """
    with open_replacing(path) as handle:
        out = csv.writer(_RowEnds(handle, lineterminator))
        out.writerow(header)
        out.writerows(rows)


class _RowEnds:
    """A ``csv.writer``'s file: each row comes in one ``write`` and leaves ending in ``end``."""

    def __init__(self, handle: TextIO, end: str):
        self._handle = handle
        self._end = end

    def write(self, row: str) -> int:
        return self._handle.write(row[: -len("\r\n")] + self._end)
