"""Minimal WARC 1.0/1.1 reader and writer.

Reads response records with their on-disk byte spans so an index can
point back at them, and writes deterministic records (fixed header
order, explicit record IDs and dates, gzip members with zero mtime).
Compression is detected per record, so files mixing plain and gzipped
members still read correctly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

__all__ = [
    "MalformedRecord",
    "RawRecord",
    "WarcWriter",
    "build_response_record",
    "find_header",
    "gzip_member",
    "iter_raw_records",
    "parse_http_response",
    "read_record_span",
]

_GZIP_MAGIC = b"\x1f\x8b"
_CRLF = b"\r\n"
_HEADER_END = b"\r\n\r\n"
# Bytes read from a file at a time while scanning it.
_CHUNK = 1 << 16


class MalformedRecord(ValueError):
    """A record that cannot be parsed; carries file and offset context."""

    def __init__(self, message: str, path: str | Path = "", offset: int = -1):
        location = f" ({path} @ {offset})" if offset >= 0 else ""
        super().__init__(f"{message}{location}")
        self.path = str(path)
        self.offset = offset


@dataclass(frozen=True)
class RawRecord:
    """One WARC record plus its on-disk span.

    ``length`` covers the full span (the compressed member for gzipped
    records), so ``data[offset:offset+length]`` is a self-contained,
    relocatable slice.
    """

    offset: int
    length: int
    headers: tuple[tuple[str, str], ...]
    block: bytes

    @property
    def record_type(self) -> str:
        return (find_header(self.headers, "WARC-Type") or "").lower()

    @property
    def target_uri(self) -> str:
        uri = find_header(self.headers, "WARC-Target-URI") or ""
        # Some writers wrap the URI in angle brackets.
        return uri[1:-1] if uri.startswith("<") and uri.endswith(">") else uri


def find_header(headers: Iterable[tuple[str, str]], name: str) -> str | None:
    """Value of the first header called ``name``, compared case-insensitively."""
    wanted = name.lower()
    return next((value for key, value in headers if key.lower() == wanted), None)


class _Window:
    """Reads an open file ``_CHUNK`` bytes at a time.

    ``data`` holds the file's bytes from offset ``start``; the handle
    stands at ``start + len(data)``. Each method takes absolute offsets
    and seeks only to go back before ``start``.
    """

    def __init__(self, handle: BinaryIO):
        self._handle = handle
        self.data = b""
        self.start = 0

    def fill(self, pos: int, size: int) -> int:
        """Hold ``size`` bytes from ``pos``, or all up to the end of the
        file; return the index of ``pos`` in ``data``."""
        index = pos - self.start
        if not 0 <= index <= len(self.data):
            self._handle.seek(pos)
            self.data, self.start, index = b"", pos, 0
        if len(self.data) - index < size:
            parts = [self.data[index:]]
            held = len(parts[0])
            while held < size and (chunk := self._handle.read(_CHUNK)):
                parts.append(chunk)
                held += len(chunk)
            self.data, self.start, index = b"".join(parts), pos, 0
        return index

    def chunks(self, pos: int) -> Iterator[bytes | memoryview]:
        """The file's bytes from ``pos`` on, one chunk at a time."""
        chunk = memoryview(self.data)[self.fill(pos, 1) :]
        while chunk:
            yield chunk
            self.start += len(self.data)
            self.data = chunk = self._handle.read(_CHUNK)

    def find(self, pos: int, *markers: bytes) -> int:
        """Offset of the first of ``markers`` at or after ``pos``; -1 if none.

        Only the last few bytes, which a marker may straddle, are kept
        from one chunk to the next. No marker occurs inside another, so
        a marker found before a straddling one is the first.
        """
        overlap = max(map(len, markers)) - 1
        index = self.fill(pos, 0)
        while True:
            hits = [hit for hit in (self.data.find(m, index) for m in markers) if hit >= 0]
            if hits:
                return self.start + min(hits)
            end = self.start + len(self.data)
            pos = max(self.start + index, end - overlap)
            index = self.fill(pos, end - pos + 1)
            if self.start + len(self.data) == end:
                return -1


def _inflate_member(
    chunks: Iterable[bytes | memoryview], path: str | Path, offset: int
) -> tuple[bytes, int]:
    """Inflate the gzip member that ``chunks`` start with.

    Returns the record bytes and the member's length on disk; bytes
    after the member are left unread.
    """
    decomp = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)
    parts = []
    consumed = 0
    for chunk in chunks:
        consumed += len(chunk)
        try:
            parts.append(decomp.decompress(chunk))
        except zlib.error as exc:
            raise MalformedRecord(f"bad gzip member: {exc}", path, offset) from exc
        if decomp.eof:
            return b"".join(parts), consumed - len(decomp.unused_data)
    raise MalformedRecord("truncated gzip member", path, offset)


def _plain_record(window: _Window, pos: int, path: str | Path) -> tuple[bytes, int]:
    """The bytes and length of the uncompressed record at ``pos``."""
    head_end = window.find(pos, _HEADER_END)
    if head_end < 0:
        raise MalformedRecord("record header never terminates", path, pos)
    index = window.fill(pos, head_end - pos)
    content_length = _content_length_of(window.data[index : index + head_end - pos], path, pos)
    length = head_end - pos + len(_HEADER_END) + content_length + len(_HEADER_END)
    index = window.fill(pos, length)
    raw = window.data[index : index + length]
    if len(raw) != length:
        raise MalformedRecord("record block extends past end of file", path, pos)
    return raw, length


def _content_length_of(head: bytes, path: str | Path, offset: int) -> int:
    for line in head.split(_CRLF):
        if line.lower().startswith(b"content-length:"):
            try:
                length = int(line.split(b":", 1)[1].strip())
            except ValueError as exc:
                raise MalformedRecord("bad Content-Length", path, offset) from exc
            if length < 0:
                raise MalformedRecord("bad Content-Length", path, offset)
            return length
    raise MalformedRecord("missing Content-Length", path, offset)


def _parse_record_bytes(
    raw: bytes, offset: int, length: int, path: str | Path
) -> RawRecord:
    head_end = raw.find(_HEADER_END)
    if head_end < 0:
        raise MalformedRecord("record header never terminates", path, offset)
    lines = raw[:head_end].split(_CRLF)
    version = lines[0].decode("ascii", "replace").strip()
    if not version.startswith("WARC/"):
        raise MalformedRecord(f"not a WARC record: {version!r}", path, offset)
    headers: list[tuple[str, str]] = []
    for line in lines[1:]:
        name, sep, value = line.partition(b":")
        if not sep:
            raise MalformedRecord("malformed header line", path, offset)
        headers.append(
            (name.decode("ascii", "replace").strip(), value.decode("utf-8", "replace").strip())
        )
    content_length = _content_length_of(raw[:head_end], path, offset)
    body_start = head_end + len(_HEADER_END)
    block = raw[body_start : body_start + content_length]
    if len(block) != content_length:
        raise MalformedRecord("record block truncated", path, offset)
    return RawRecord(offset, length, tuple(headers), block)


def iter_raw_records(path: str | Path) -> Iterator[RawRecord | MalformedRecord]:
    """Scan a WARC file, yielding records or the errors of unreadable ones.

    Yielding errors (rather than raising) lets callers skip and tally
    corrupt records; the scan resynchronizes at the next record start.
    The file is read in one pass, a chunk at a time, so memory is
    bounded by the largest record rather than by the file; only the
    bytes after an unreadable record's start are read again.
    """
    with open(path, "rb") as handle:
        window = _Window(handle)
        pos = 0
        while True:
            index = window.fill(pos, 2)
            lead = window.data[index : index + 2]
            if not lead:
                return
            # Skip stray CRLF padding between records.
            if lead == _CRLF:
                pos += 2
                continue
            try:
                if lead == _GZIP_MAGIC:
                    raw, length = _inflate_member(window.chunks(pos), path, pos)
                else:
                    raw, length = _plain_record(window, pos, path)
                record = _parse_record_bytes(raw, pos, length, path)
            except MalformedRecord as err:
                yield err
                pos = window.find(pos + 1, _GZIP_MAGIC, b"WARC/")
                if pos < 0:
                    return
                continue
            yield record
            pos += length


def _read_span(path: str | Path, offset: int, length: int) -> bytes:
    with open(path, "rb") as handle:
        handle.seek(offset)
        data = handle.read(length)
    if len(data) != length:
        raise MalformedRecord("record span extends past end of file", path, offset)
    return data


def read_record_span(path: str | Path, offset: int, length: int) -> RawRecord:
    """Random-access read of the record stored at (offset, length)."""
    data = _read_span(path, offset, length)
    if data[:2] == _GZIP_MAGIC:
        data = _inflate_member((data,), path, offset)[0]
    return _parse_record_bytes(data, offset, length, path)


def read_raw_span(path: str | Path, offset: int, length: int) -> bytes:
    """The verbatim on-disk bytes of a record span."""
    return _read_span(path, offset, length)


def parse_http_response(block: bytes) -> tuple[int, list[tuple[str, str]], bytes]:
    """Split an HTTP response block into (status, headers, payload)."""
    head_end = block.find(_HEADER_END)
    sep_len = len(_HEADER_END)
    if head_end < 0:
        head_end = block.find(b"\n\n")
        sep_len = 2
    if head_end < 0:
        raise MalformedRecord("HTTP response head never terminates")
    head = block[:head_end].decode("iso-8859-1")
    lines = head.splitlines()
    if not lines or not lines[0].startswith("HTTP/"):
        raise MalformedRecord(f"not an HTTP response: {lines[0][:40]!r}" if lines else "empty block")
    parts = lines[0].split(None, 2)
    try:
        status = int(parts[1])
    except (IndexError, ValueError) as exc:
        raise MalformedRecord(f"bad HTTP status line: {lines[0]!r}") from exc
    headers = []
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers.append((name.strip(), value.strip()))
    return status, headers, block[head_end + sep_len :]


def build_response_record(
    url: str,
    date_iso: str,
    payload: bytes,
    *,
    record_id: str,
    http_status: int = 200,
    media_type: str = "text/html",
    warc_version: str = "WARC/1.0",
) -> bytes:
    """Serialize one uncompressed response record, trailing CRLFs included."""
    reason = {200: "OK", 301: "Moved Permanently", 302: "Found", 404: "Not Found"}.get(
        http_status, "Unknown"
    )
    http_head = (
        f"HTTP/1.1 {http_status} {reason}\r\n"
        f"Content-Type: {media_type}; charset=utf-8\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode("ascii")
    block = http_head + payload
    warc_head = (
        f"{warc_version}\r\n"
        f"WARC-Type: response\r\n"
        f"WARC-Record-ID: <{record_id}>\r\n"
        f"WARC-Date: {date_iso}\r\n"
        f"WARC-Target-URI: {url}\r\n"
        f"Content-Type: application/http; msgtype=response\r\n"
        f"Content-Length: {len(block)}\r\n\r\n"
    ).encode("ascii")
    return warc_head + block + _HEADER_END


def gzip_member(raw: bytes, level: int = 6) -> bytes:
    """Compress one record into a standalone gzip member (mtime 0)."""
    comp = zlib.compressobj(level, zlib.DEFLATED, 16 + zlib.MAX_WBITS)
    return comp.compress(raw) + comp.flush()


class WarcWriter:
    """Appends records to one WARC file, tracking each record's span."""

    def __init__(self, path: str | Path, *, compress: bool = True):
        self.path = Path(path)
        self.compress = compress
        self._handle = open(self.path, "wb")
        self._offset = 0

    def write_record_bytes(self, raw: bytes) -> tuple[int, int]:
        """Write one record; returns its (offset, length) span.

        A gzip member (a WARC record itself starts with ``WARC/``) is
        written unchanged, so compressed records copy through verbatim.
        """
        data = gzip_member(raw) if self.compress and raw[:2] != _GZIP_MAGIC else raw
        offset = self._offset
        self._handle.write(data)
        self._offset += len(data)
        return offset, len(data)

    def write_response(
        self,
        url: str,
        date_iso: str,
        payload: bytes,
        *,
        record_id: str,
        http_status: int = 200,
        media_type: str = "text/html",
    ) -> tuple[int, int]:
        raw = build_response_record(
            url,
            date_iso,
            payload,
            record_id=record_id,
            http_status=http_status,
            media_type=media_type,
        )
        return self.write_record_bytes(raw)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "WarcWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
