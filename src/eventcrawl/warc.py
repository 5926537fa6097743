"""Minimal WARC 1.0/1.1 reader and writer.

Reads response records with their on-disk byte spans so an index can
point back at them, and writes deterministic records (fixed header
order, explicit record IDs and dates, gzip members with zero mtime).
Compression is detected per record, so files mixing plain and gzipped
members still read correctly. A scan reads each file through a
``_CHUNK``-byte buffer in plain reads of ``_CHUNK`` bytes, so a gzip
member is inflated from its own bytes plus at most one piece beyond
them. One ``_inflate`` serves the scan, ``read_record_span`` and
``decode_payload``, which undoes the transfer and content codings of an
HTTP payload.
"""

from __future__ import annotations

import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

__all__ = [
    "MalformedRecord",
    "RawRecord",
    "WarcWriter",
    "build_response_record",
    "decode_payload",
    "find_header",
    "gzip_member",
    "iter_raw_records",
    "parse_http_response",
    "read_record_span",
]

_GZIP_MAGIC = b"\x1f\x8b"
_CRLF = b"\r\n"
_HEADER_END = b"\r\n\r\n"
# The ``wbits`` of a gzip stream.
_GZIP = 16 + zlib.MAX_WBITS
# The buffer size of a scanned file, and the bytes read from it at a time.
_CHUNK = 1 << 12


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
    """The file's bytes from ``pos`` on, ``_CHUNK`` bytes at a time."""
    handle.seek(pos)
    while chunk := handle.read(_CHUNK):
        yield chunk


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


def _inflate(
    chunks: Iterable[bytes], wbits: int, what: str, path: str | Path = "", offset: int = -1
) -> tuple[bytes, int]:
    """Inflate the zlib, gzip or raw deflate stream, as ``wbits`` says, that ``chunks`` start with.

    Returns the inflated bytes and the stream's length; bytes after the
    stream are left unread. Errors name the stream ``what``.
    """
    decomp = zlib.decompressobj(wbits)
    parts = []
    consumed = 0
    for chunk in chunks:
        consumed += len(chunk)
        try:
            parts.append(decomp.decompress(chunk))
        except zlib.error as exc:
            raise MalformedRecord(f"bad {what}: {exc}", path, offset) from exc
        if decomp.eof:
            return b"".join(parts), consumed - len(decomp.unused_data)
    raise MalformedRecord(f"truncated {what}", path, offset)


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
    The file is read in one pass of ``_CHUNK``-byte reads, so memory is
    bounded by the largest record rather than by the file; only the
    bytes after an unreadable record's start are read again.
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
                    raw, length = _inflate(_chunks(handle, pos), _GZIP, "gzip member", path, pos)
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
        data = _inflate((data,), _GZIP, "gzip member", path, offset)[0]
    return _parse_record_bytes(data, offset, length, path)


def read_raw_span(path: str | Path, offset: int, length: int) -> bytes:
    """The verbatim on-disk bytes of a record span."""
    return _read_span(path, offset, length)


# The empty line that ends an HTTP head: the first LF followed by a line
# end, CRLF or a bare LF (RFC 9112 §2.2). Led by a plain LF, the search
# runs at find()'s speed; a CR before it stays with the last header line.
_HTTP_HEAD_END = re.compile(rb"\n\r?\n")


def parse_http_response(block: bytes) -> tuple[int, list[tuple[str, str]], bytes]:
    """Split an HTTP response block into (status, headers, payload)."""
    head_end = _HTTP_HEAD_END.search(block)
    if head_end is None:
        raise MalformedRecord("HTTP response head never terminates")
    # A line ends only at CRLF or a bare LF (RFC 9112 §2.2); strip() drops the CR.
    lines = block[: head_end.start()].decode("iso-8859-1").split("\n")
    if not lines[0].startswith("HTTP/"):
        raise MalformedRecord(f"not an HTTP response: {lines[0][:40]!r}")
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
    return status, headers, block[head_end.end() :]


def decode_payload(headers: list[tuple[str, str]], payload: bytes) -> bytes:
    """The payload with its transfer and content codings undone, last-applied first.

    Removes ``chunked`` framing (RFC 9112 §7.1), then inflates each
    ``gzip``, ``x-gzip`` or ``deflate`` content coding (zlib-wrapped or
    raw); ``identity`` is no coding. Raises :class:`MalformedRecord` for
    any other coding and for broken framing or compressed data.
    """
    for coding in reversed(_codings(headers, "transfer-encoding")):
        if coding != "chunked":
            raise MalformedRecord(f"unsupported transfer coding: {coding!r}")
        payload = _unchunk(payload)
    for coding in reversed(_codings(headers, "content-encoding")):
        if coding in ("gzip", "x-gzip"):
            payload = _inflate((payload,), _GZIP, "compressed payload")[0]
        elif coding == "deflate":
            try:
                payload = _inflate((payload,), zlib.MAX_WBITS, "compressed payload")[0]
            except MalformedRecord:
                payload = _inflate((payload,), -zlib.MAX_WBITS, "compressed payload")[0]
        else:
            raise MalformedRecord(f"unsupported content coding: {coding!r}")
    return payload


def _codings(headers: list[tuple[str, str]], name: str) -> list[str]:
    """The codings every ``name`` header lists, in order applied, ``identity`` left out."""
    return [
        coding
        for key, value in headers
        if key.lower() == name
        for coding in (part.strip().lower() for part in value.split(","))
        if coding and coding != "identity"
    ]


# A chunk-size line, and the trailer's field lines up to the empty line
# that ends a chunked body. Each line ends in CRLF or a bare LF (RFC 9112 §2.2).
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;[^\r\n]*)?\r?\n")
_TRAILER = re.compile(rb"(?:[^\r\n]+\r?\n)*\r?\n")


def _unchunk(data: bytes) -> bytes:
    """The data of a chunked body: its chunks, without sizes, extensions or trailer."""
    parts = []
    pos = 0
    while True:
        size_line = _CHUNK_SIZE.match(data, pos)
        if size_line is None:
            raise MalformedRecord("bad chunk size line")
        size = int(size_line.group(1), 16)
        pos = size_line.end()
        if size == 0:
            break
        # Only CRLF ends chunk data, so a size one byte too large is not read as LF.
        if data[pos + size : pos + size + 2] != _CRLF:
            raise MalformedRecord("chunk data does not end in CRLF")
        parts.append(data[pos : pos + size])
        pos += size + 2
    if _TRAILER.fullmatch(data, pos) is None:
        raise MalformedRecord("chunked body does not end in a trailer and an empty line")
    return b"".join(parts)


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
