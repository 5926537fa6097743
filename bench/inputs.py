"""Seeded benchmark inputs: synthetic archives, skip records and specs.

Run as a script, it builds one workload's inputs in a directory and
writes ``truth.json`` beside them, so the set-up runs in a fresh process
like every timed command:

    python3 bench/inputs.py --sizes '{"pages": 100, ...}' --seed 3 --out DIR

Every byte derives from the workload's sizes and the seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_eventcrawl():
    """Import the checkout's own eventcrawl; fail if ``src/`` is absent."""
    if not (SRC / "eventcrawl" / "__init__.py").is_file():
        raise SystemExit(f"bench: no eventcrawl sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import eventcrawl

    return eventcrawl


@dataclass(frozen=True)
class Sizes:
    """The input shape of one workload."""

    pages: int  # pages per capture
    captures: int  # generator archives over the same URLs
    words: int  # words per page
    links: int  # links per page
    language: str  # spec language: none | en
    budget: int  # spec target_size
    omit_fraction: float
    skip_records: bool  # write the skip WARC
    index_in_setup: bool  # build the index as part of set-up


# Sized so that one run with three set-ups fits the benchmark's time
# budget on a 2-CPU machine; see bench/README.md for the scaling notes.
WORKLOADS = {
    "ingest": Sizes(3000, 1, 120, 12, "none", 300, 0.0, True, False),
    "crawl": Sizes(800, 2, 800, 60, "en", 150, 0.05, False, True),
    "eval": Sizes(3000, 1, 120, 12, "none", 700, 0.0, False, True),
}

EVENT = ("2011-03-01", "2011-03-14", "2w", "4w")
SPREAD = "180d"
HOST = "archive.test"


def build_inputs(sizes: Sizes, seed: int, out: Path) -> dict:
    """Write the WARCs under ``out/warcs``, ``spec.json`` and ``truth.json``."""
    eventcrawl = import_eventcrawl()
    from eventcrawl.evalharness import SyntheticArchiveConfig, spec_for_ground_truth
    from eventcrawl.spec import TemporalScope
    from eventcrawl.timeutil import parse_duration, parse_iso8601

    start, end, lead, cool = EVENT
    scope = TemporalScope(
        event_start=parse_iso8601(start),
        event_end=parse_iso8601(end, end_of_day=True),
        lead_time=parse_duration(lead),
        cool_down_time=parse_duration(cool),
    )
    warcs = out / "warcs"
    warcs.mkdir(parents=True, exist_ok=True)
    truth = None
    for capture in range(sizes.captures):
        config = SyntheticArchiveConfig(
            page_count=sizes.pages,
            relevant_fraction=0.1,
            topical_locality=0.8,
            event_scope=scope,
            capture_time_spread=parse_duration(SPREAD),
            random_seed=seed * 7919 + capture,
            page_word_count=sizes.words,
            out_degree=sizes.links,
            omit_fraction=sizes.omit_fraction,
            host=HOST,
        )
        gen_dir = out / f"gen{capture}"
        paths, capture_truth = eventcrawl.generate_archive(config, gen_dir)
        paths[0].rename(warcs / f"capture{capture}.warc.gz")
        truth = truth or capture_truth

    skip_counts = {}
    if sizes.skip_records:
        skip_counts = write_skip_warc(warcs / "skip.warc.gz", truth.labels, Random(seed))

    spec = spec_for_ground_truth(truth, scope, target_size=sizes.budget)
    spec = dataclasses.replace(
        spec, topical=dataclasses.replace(spec.topical, language=sizes.language)
    )
    (out / "spec.json").write_text(eventcrawl.serialize_spec(spec), encoding="utf-8")

    html_captures = len(truth.labels) * sizes.captures
    record = {
        "pages": sizes.pages,
        "captures": html_captures,
        "words_per_page": sizes.words,
        "links_per_page": sizes.links,
        "budget": sizes.budget,
        "skip_records": sum(skip_counts.values()),
        "skip_kinds": skip_counts,
        "records": html_captures + sum(skip_counts.values()),
        "warc_bytes": sum(p.stat().st_size for p in warcs.iterdir()),
        "omitted": sorted(truth.omitted),
    }
    (out / "truth.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def write_skip_warc(path: Path, labels: dict[str, str], rng: Random) -> dict[str, int]:
    """One record per page that the indexer must skip, the kinds in turn.

    The kinds reach each branch of ``_index_record`` that skips a
    well-formed record: a request record (not a response), a PNG
    response (not HTML) and a 404 response (not 200). Their number and mix are arbitrary, not taken
    from any real crawl. Returns the count of each kind written.
    """
    from eventcrawl.warc import WarcWriter

    counts = {"request": 0, "image": 0, "not_found": 0}
    date = "2011-03-07T12:00:00Z"
    with WarcWriter(path, compress=True) as writer:
        for n, url in enumerate(sorted(labels)):
            kind = tuple(counts)[n % len(counts)]
            if kind == "request":
                writer.write_record_bytes(_request_record(url, date, f"urn:bench:req:{n}"))
            elif kind == "image":
                writer.write_response(
                    f"http://{HOST}/img/{n:05d}.png", date, rng.randbytes(500),
                    record_id=f"urn:bench:img:{n}", media_type="image/png",
                )
            else:
                writer.write_response(
                    f"http://{HOST}/nf/{n:05d}", date, b"<html>not found</html>",
                    record_id=f"urn:bench:nf:{n}", http_status=404,
                )
            counts[kind] += 1
    return counts


def _request_record(url: str, date: str, record_id: str) -> bytes:
    path = url.split(HOST, 1)[-1] or "/"
    block = f"GET {path} HTTP/1.1\r\nHost: {HOST}\r\nUser-Agent: bench\r\n\r\n".encode()
    head = (
        "WARC/1.0\r\nWARC-Type: request\r\n"
        f"WARC-Record-ID: <{record_id}>\r\nWARC-Date: {date}\r\n"
        f"WARC-Target-URI: {url}\r\nContent-Type: application/http; msgtype=request\r\n"
        f"Content-Length: {len(block)}\r\n\r\n"
    ).encode()
    return head + block + b"\r\n\r\n"


def written_payloads(warc_path: Path) -> dict[tuple[str, str], bytes]:
    """(url, WARC-Date) -> HTTP payload of each response in a WARC.

    An oracle that shares no code with eventcrawl: gzip, a regex split
    at record starts, and Content-Length.
    """
    data = gzip.decompress(warc_path.read_bytes())
    payloads = {}
    for chunk in re.split(rb"(?=WARC/1\.[01]\r\n)", data):
        head, _, rest = chunk.partition(b"\r\n\r\n")
        headers = dict(line.split(b": ", 1) for line in head.split(b"\r\n")[1:] if b": " in line)
        if headers.get(b"WARC-Type") != b"response":
            continue
        block = rest[: int(headers[b"Content-Length"])]
        payload = block.partition(b"\r\n\r\n")[2]
        payloads[(headers[b"WARC-Target-URI"].decode(), headers[b"WARC-Date"].decode())] = payload
    return payloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", required=True, help="JSON object of Sizes fields")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    build_inputs(Sizes(**json.loads(args.sizes)), args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
