"""Minimal WARC 1.0/1.1 reader and writer.

Reads response records with their on-disk byte spans so an index can
point back at them, and writes deterministic records (fixed header
order, explicit record IDs and dates, gzip members with zero mtime).
Compression is detected per record, so files mixing plain and gzipped
members still read correctly. A scan reads each file through the
file's own ``_CHUNK``-byte buffer.
"""

from __future__ import annotations

import os
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
# The buffer size of a scanned file: the bytes read from it at a time.
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


def _chunks(handle: BinaryIO, pos: int) -> Iterator[bytes]:
    """The file's bytes from ``pos`` on, one peek at its buffer at a time.

    The handle moves past a chunk only when the next one is asked for,
    so a seek to an offset within the last chunk stays inside the buffer.
    """
    handle.seek(pos)
    while chunk := handle.peek():
        yield chunk
        handle.seek(len(chunk), 1)


def _find(handle: BinaryIO, pos: int, *markers: bytes) -> int:
    """Offset of the first of ``markers`` at or after ``pos``; -1 if none.

    Only the last few bytes, which a marker may straddle, are kept from
    one chunk to the next. No marker occurs inside another, so a marker
    found before a straddling one is the first.
    """
    overlap = max(map(len, markers)) - 1
    tail = b""
    for chunk in _chunks(handle, pos):
        data = tail + chunk
        hits = [hit for hit in (data.find(m) for m in markers) if hit >= 0]
        if hits:
            return pos + min(hits)
        tail = data[-overlap:]
        pos += len(data) - len(tail)
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


def _plain_record(
    handle: BinaryIO, pos: int, size: int, path: str | Path
) -> tuple[bytes, int]:
    """The bytes and length of the uncompressed record at ``pos``."""
    head_end = _find(handle, pos, _HEADER_END)
    if head_end < 0:
        raise MalformedRecord("record header never terminates", path, pos)
    handle.seek(pos)
    content_length = _content_length_of(handle.read(head_end - pos), path, pos)
    length = head_end - pos + len(_HEADER_END) + content_length + len(_HEADER_END)
    # Checked before the read, which would allocate all ``length`` bytes.
    if pos + length > size:
        raise MalformedRecord("record block extends past end of file", path, pos)
    handle.seek(pos)
    return handle.read(length), length


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
    The file is read in one pass through its own ``_CHUNK``-byte buffer,
    so memory is bounded by the largest record rather than by the file;
    only the bytes after an unreadable record's start are read again.
    """
    with open(path, "rb", buffering=_CHUNK) as handle:
        size = os.fstat(handle.fileno()).st_size
        pos = 0
        while True:
            handle.seek(pos)
            lead = handle.read(2)
            if not lead:
                return
            # Skip stray CRLF padding between records.
            if lead == _CRLF:
                pos += 2
                continue
            try:
                if lead == _GZIP_MAGIC:
                    raw, length = _inflate_member(_chunks(handle, pos), path, pos)
                else:
                    raw, length = _plain_record(handle, pos, size, path)
                record = _parse_record_bytes(raw, pos, length, path)
            except MalformedRecord as err:
                yield err
                pos = _find(handle, pos + 1, _GZIP_MAGIC, b"WARC/")
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
