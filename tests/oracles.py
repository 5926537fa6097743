"""Independent reference implementations used to check the engine.

Everything here favors obviousness over speed: linear scans instead of
heaps, explicit enumeration instead of early exits. The scoring of
documents reuses only the public scoring primitives, never the crawl
loop under test.
"""

from __future__ import annotations

import gzip
import re
import zlib

from eventcrawl import warc
from eventcrawl.archive import ArchiveIndex, fetch_document
from eventcrawl.crawler import extract_outlinks
from eventcrawl.relevance import (
    extract_document_time,
    temporal_relevance,
    topical_relevance,
)
from eventcrawl.spec import CollectionSpecification, TemporalScope
from eventcrawl.text import (
    IdfDictionary,
    build_reference_vector,
    get_analyzer,
    vectorize,
)
from eventcrawl.urlnorm import CanonicalizationError, canonicalize_url


def reference_scan(path):
    """Independent WARC scan: gzip + regex + Content-Length, no eventcrawl code."""
    data = gzip.decompress(open(path, "rb").read())
    records = []
    for chunk in re.split(rb"(?=WARC/1\.[01]\r\n)", data):
        if not chunk.startswith(b"WARC/"):
            continue
        head, _, rest = chunk.partition(b"\r\n\r\n")
        headers = dict(
            line.split(b": ", 1)
            for line in head.split(b"\r\n")[1:]
            if b": " in line
        )
        block = rest[: int(headers[b"Content-Length"])]
        http_head, _, payload = block.partition(b"\r\n\r\n")
        status = int(http_head.split(b" ")[1])
        records.append(
            {
                "url": headers[b"WARC-Target-URI"].decode(),
                "date": headers[b"WARC-Date"].decode(),
                "status": status,
                "payload": payload,
            }
        )
    return records


def whole_file_scan(path):
    """The record framing of ``warc.iter_raw_records`` over the whole file in memory.

    Each gzip member is inflated from a slice running to the end of the
    file, so this is quadratic in the file size; it is kept as the
    reference the chunked reader must agree with, records and error
    offsets alike.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    items = []
    pos = 0
    while pos < len(data):
        while data[pos : pos + 2] == b"\r\n":
            pos += 2
        if pos >= len(data):
            break
        try:
            raw, end = _split_record_span(data, pos, path)
            items.append(warc._parse_record_bytes(raw, pos, end - pos, path))
            pos = end
        except warc.MalformedRecord as err:
            items.append(err)
            pos = _resync(data, pos)
    return items


def _split_record_span(data, pos, path):
    if data[pos : pos + 2] == b"\x1f\x8b":
        decomp = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)
        try:
            raw = decomp.decompress(data[pos:])
        except zlib.error as exc:
            raise warc.MalformedRecord(f"bad gzip member: {exc}", path, pos) from exc
        if not decomp.eof:
            raise warc.MalformedRecord("truncated gzip member", path, pos)
        return raw, len(data) - len(decomp.unused_data)
    head_end = data.find(b"\r\n\r\n", pos)
    if head_end < 0:
        raise warc.MalformedRecord("record header never terminates", path, pos)
    content_length = warc._content_length_of(data[pos:head_end], path, pos)
    end = head_end + 4 + content_length + 4
    if end > len(data):
        raise warc.MalformedRecord("record block extends past end of file", path, pos)
    return data[pos:end], end


def _resync(data, pos):
    candidates = [
        idx for idx in (data.find(b"\x1f\x8b", pos + 1), data.find(b"WARC/", pos + 1)) if idx >= 0
    ]
    return min(candidates) if candidates else len(data)


def select_snapshot_oracle(snapshots, scope: TemporalScope):
    """Exhaustive search over all candidates, rules applied literally."""
    start, end = scope.start_epoch, scope.end_epoch
    inside = [s for s in snapshots if start <= s.capture_epoch() <= end]
    if inside:
        return min(inside, key=lambda s: s.capture_time)

    def distance(s):
        t = s.capture_epoch()
        return start - t if t < start else t - end

    best = min(distance(s) for s in snapshots)
    candidates = [s for s in snapshots if distance(s) == best]
    return min(candidates, key=lambda s: s.capture_time)


def reference_crawl(
    spec: CollectionSpecification,
    index: ArchiveIndex,
    strategy_name: str,
    idf: IdfDictionary,
) -> tuple[list[str], set[str]]:
    """Brute-force simulation of the extraction loop.

    The pending list is scanned linearly for the maximum-priority entry
    (ties: smallest insertion sequence). Returns (fetch order, missing).
    """
    reference = build_reference_vector(spec.topical, idf, index=index)
    analyzer = get_analyzer(spec.topical.language)

    pending: dict[str, tuple[float, int]] = {}
    sequence = 0
    for seed in spec.seeds:
        url = canonicalize_url(seed)
        if url not in pending:
            pending[url] = (float("inf"), sequence)
            sequence += 1

    fetched: list[str] = []
    missing: set[str] = set()

    while pending and len(fetched) < spec.target_size:
        url = min(pending, key=lambda u: (-pending[u][0], pending[u][1]))
        del pending[url]

        snapshots = index.resolve_snapshots(url)
        if not snapshots:
            missing.add(url)
            continue
        snapshot = select_snapshot_oracle(snapshots, spec.temporal)
        document = fetch_document(index, snapshot)
        fetched.append(url)

        doc_vector = vectorize(analyzer.tokens(document.scanned().text), idf)
        topical = topical_relevance(doc_vector, reference)
        temporal = temporal_relevance(
            extract_document_time(document).epoch(), spec.temporal
        )
        if strategy_name == "unfocused":
            priority = 1.0
        elif strategy_name == "c-f":
            priority = topical
        elif strategy_name == "t-f":
            priority = temporal
        elif strategy_name == "ct-f":
            priority = spec.alpha * topical + (1.0 - spec.alpha) * temporal
        else:
            raise ValueError(strategy_name)

        for target in extract_outlinks(document):
            if target in fetched or target in missing:
                continue
            if target in pending:
                old_priority, old_sequence = pending[target]
                if priority > old_priority:
                    pending[target] = (priority, old_sequence)
            else:
                pending[target] = (priority, sequence)
                sequence += 1

    return fetched, missing


def reference_bfs(
    spec: CollectionSpecification, index: ArchiveIndex
) -> tuple[list[str], set[str]]:
    """Plain FIFO breadth-first traversal from the seeds."""
    queue = [canonicalize_url(seed) for seed in spec.seeds]
    queued = set(queue)
    fetched: list[str] = []
    missing: set[str] = set()
    while queue and len(fetched) < spec.target_size:
        url = queue.pop(0)
        snapshots = index.resolve_snapshots(url)
        if not snapshots:
            missing.add(url)
            continue
        document = fetch_document(index, select_snapshot_oracle(snapshots, spec.temporal))
        fetched.append(url)
        for target in extract_outlinks(document):
            if target not in queued and target not in missing and target not in fetched:
                queue.append(target)
                queued.add(target)
    return fetched, missing


def reference_outlinks(page, document_url):
    """Outlinks with every href, root-relative ones too, canonicalized
    against the base by ``canonicalize_url``."""
    base = document_url
    if page.base_href:
        try:
            base = canonicalize_url(page.base_href, document_url)
        except CanonicalizationError:
            pass
    result = []
    for href in page.links:
        if href.startswith("#"):
            continue
        try:
            url = canonicalize_url(href, base)
        except CanonicalizationError:
            continue
        if url not in result:
            result.append(url)
    return result
