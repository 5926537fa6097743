"""Output checks derived from the generator's ground truth.

Each check returns a list of problems; an empty list means the output is
correct. The seed varies between runs, so nothing here compares against
pinned digests.
"""

from __future__ import annotations

import csv
import hashlib
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from random import Random

from inputs import written_payloads

SAMPLE_FETCHES = 16


class Truth:
    """What set-up wrote: ``truth.json`` plus payloads read back by the oracle.

    ``payloads`` is keyed by (WARC file name, url, capture time): the two
    captures of the ``crawl`` workload can share a URL and a time.
    """

    def __init__(self, record: dict, warcs: Path):
        self.record = record
        self.omitted = set(record["omitted"])
        self.payloads = {}
        for path in sorted(warcs.glob("capture*.warc.gz")):
            for (url, date), payload in written_payloads(path).items():
                self.payloads[(path.name, url, _ts14(date))] = payload
        self.captures = {(url, ts) for _, url, ts in self.payloads}


def _ts14(iso: str) -> str:
    when = datetime.strptime(iso, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    return when.strftime("%Y%m%d%H%M%S")


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def check_index(index_path: Path, truth: Truth, seed: int) -> list[str]:
    """Exactly the HTML 200 captures written, every line parses, bodies match."""
    from eventcrawl import ArchiveIndex, SnapshotRecord, fetch_document

    problems = []
    lines = index_path.read_text(encoding="utf-8").splitlines()
    records = []
    for line in lines:
        try:
            records.append(SnapshotRecord.from_line(line))
        except ValueError as exc:
            problems.append(f"index line does not re-parse: {exc}")
    indexed = {(r.canonical_url, r.capture_time) for r in records}
    if len(records) != truth.record["captures"]:
        problems.append(f"indexed {len(records)} captures, wrote {truth.record['captures']}")
    stray = indexed - truth.captures
    if stray:
        problems.append(f"{len(stray)} indexed captures were never written as HTML 200, e.g. {min(stray)}")
    if problems:
        return problems
    index = ArchiveIndex.open(index_path)
    for record in Random(seed).sample(records, min(SAMPLE_FETCHES, len(records))):
        body = fetch_document(index, record).body
        key = (Path(record.warc_file).name, record.canonical_url, record.capture_time)
        if body != truth.payloads[key]:
            problems.append(f"fetched body differs from the written payload: {record.canonical_url}")
    return problems


def check_open(result: dict, truth: Truth) -> list[str]:
    if result.get("captures") != truth.record["captures"]:
        return [f"open loaded {result.get('captures')} captures, wrote {truth.record['captures']}"]
    return []


def check_crawl(out_dir: Path, truth: Truth) -> tuple[list[str], int, int, int]:
    """Returns (problems, frontier pops, skip pops, fetched documents)."""
    from eventcrawl import build_index

    problems = []
    trace = _rows(out_dir / "trace.csv")
    actions = [row["action"] for row in trace]
    fetched = actions.count("fetch")
    summary = _rows(out_dir / "run_summary.csv")[0]
    if int(summary["fetched"]) != fetched or not 0 < fetched <= truth.record["budget"]:
        problems.append(f"fetched {summary['fetched']} (trace {fetched}), budget {truth.record['budget']}")
    misses = {row["url"] for row in trace if row["action"] == "miss"}
    if not misses <= truth.omitted:
        problems.append(f"missed URLs outside the omitted set: {sorted(misses - truth.omitted)[:3]}")

    manifest = _rows(out_dir / "manifest.csv")
    members = {(row["url"], row["capture_time"]) for row in manifest}
    if len(manifest) != fetched:
        problems.append(f"manifest lists {len(manifest)} documents, fetched {fetched}")
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        reindex = Path(scratch) / "collection.cdx"
        build_index([out_dir / "collection.warc.gz"], reindex)
        lines = reindex.read_text(encoding="utf-8").split("\n")
        recaptured = {tuple(line.split(" ")[:2]) for line in lines if line}
    if recaptured != members:
        problems.append(
            f"collection.warc.gz re-indexes to {len(recaptured)} captures, "
            f"manifest has {len(members)}; {len(members ^ recaptured)} differ"
        )
    urls = {url for url, _ in members}
    stray = {url for row in _rows(out_dir / "edges.csv") for url in row.values() if url not in urls}
    if stray:
        problems.append(f"edge endpoints outside the manifest: {sorted(stray)[:3]}")
    return problems, len(actions), actions.count("skip"), fetched


def check_eval(out_dir: Path, exit_code: int) -> tuple[list[str], int]:
    """Returns (problems, errored strategies)."""
    problems = []
    summary = {row["strategy"]: row for row in _rows(out_dir / "summary.csv")}
    final = {}
    for row in _rows(out_dir / "accumulated_relevance.csv"):
        final[row["strategy"]] = float(row["accumulated_relevance"])
    errored = sum(1 for name in ("unfocused", "c-f", "t-f", "ct-f") if name not in final)
    if exit_code != 0 or errored or len(summary) != 4:
        problems.append(f"eval exit {exit_code}, {errored} of 4 strategies without results")
        return problems, max(errored, 1)
    for focused in ("c-f", "ct-f"):
        if not final[focused] > final["unfocused"]:
            problems.append(
                f"{focused} accumulated {final[focused]:.3f}, not above unfocused {final['unfocused']:.3f}"
            )
    return problems, 0


def digest(path: Path) -> str:
    """One digest over a file, or over every file under a directory."""
    sha = hashlib.sha256()
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    for file in files:
        sha.update(file.name.encode() + b"\0" + file.read_bytes())
    return sha.hexdigest()
