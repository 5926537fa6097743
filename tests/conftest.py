"""Shared fixtures: tiny WARC builders and a canned event scope."""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path

import pytest

from eventcrawl.spec import TemporalScope
from eventcrawl.warc import WarcWriter, build_response_record

# One line per acceptance criterion, echoed in the terminal summary so
# the verdicts are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def event_scope() -> TemporalScope:
    return TemporalScope(
        event_start=datetime(2011, 3, 1, tzinfo=timezone.utc),
        event_end=datetime(2011, 3, 14, tzinfo=timezone.utc),
        lead_time=14 * 86400.0,
        cool_down_time=28 * 86400.0,
    )


def write_warc(
    path: Path,
    pages: list[dict],
    *,
    compress: bool = True,
) -> Path:
    """Write a WARC of response records from simple page dicts.

    Each page dict: url, body (str or bytes), and optional date_iso,
    status, media_type. A page with ``http_headers`` (a list of raw
    header lines) gets a 200 response whose head holds exactly those
    lines, and its body is stored as given, coded or not. A page with
    ``http_head`` (raw bytes, its line ends and empty line included)
    gets exactly that head before its body.
    """
    with WarcWriter(path, compress=compress) as writer:
        for i, page in enumerate(pages):
            body = page["body"]
            if isinstance(body, str):
                body = body.encode("utf-8")
            record_id = f"urn:uuid:00000000-0000-0000-0000-{i:012d}"
            date_iso = page.get("date_iso", "2011-03-05T12:00:00Z")
            if "http_headers" in page:
                http_head = b"".join(line + b"\r\n" for line in page["http_headers"])
                http_head = b"HTTP/1.1 200 OK\r\n" + http_head + b"\r\n"
                record = _raw_response(page["url"], date_iso, http_head + body, record_id)
            elif "http_head" in page:
                record = _raw_response(page["url"], date_iso, page["http_head"] + body, record_id)
            else:
                record = build_response_record(
                    page["url"],
                    date_iso,
                    body,
                    record_id=record_id,
                    http_status=page.get("status", 200),
                    media_type=page.get("media_type", "text/html"),
                )
            writer.write_record_bytes(record)
    return path


def _raw_response(url: str, date_iso: str, block: bytes, record_id: str) -> bytes:
    warc_head = (
        f"WARC/1.0\r\nWARC-Type: response\r\nWARC-Record-ID: <{record_id}>\r\n"
        f"WARC-Date: {date_iso}\r\nWARC-Target-URI: {url}\r\n"
        f"Content-Type: application/http; msgtype=response\r\n"
        f"Content-Length: {len(block)}\r\n\r\n"
    ).encode("ascii")
    return warc_head + block + b"\r\n\r\n"


def page_html(text: str = "", links: list[str] = (), meta: dict | None = None) -> str:
    meta_tags = "".join(
        f'<meta property="{k}" content="{v}">' for k, v in (meta or {}).items()
    )
    anchors = "".join(f'<a href="{href}">go</a> ' for href in links)
    return f"<html><head>{meta_tags}</head><body><p>{text}</p>{anchors}</body></html>"
