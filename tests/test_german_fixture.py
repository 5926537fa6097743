"""A small German-web archive run through ``index``, ``crawl`` and ``eval``.

The pages are written here as literals: German text with umlauts and
``ß``, one gzip-coded and one chunked body, and publication dates. The
seed links one page as ``/München`` and ``/M%c3%bcnchen`` and another as
``http://münchen.de/``, while the WARC stores the requested URIs,
``/M%C3%BCnchen`` and ``xn--mnchen-3ya.de``. Every output and the command
output are compared with SHA-256 literals, so each Python version must
write the same bytes. Coded bodies go through ``warc.gzip_member``, never
``gzip.compress``, whose header OS byte differs between interpreters.
"""

import csv
import gzip
import hashlib
import json

from eventcrawl.cli import main
from eventcrawl.warc import gzip_member

from conftest import write_warc

_HTML = ["Content-Type: text/html; charset=utf-8".encode("ascii")]


def _page(published: str, title: str, text: str, links: list[str]) -> bytes:
    anchors = "".join(f'<a href="{href}">{href}</a> ' for href in links)
    return (
        '<html><head><meta charset="utf-8">\n'
        f'<meta property="article:published_time" content="{published}">\n'
        f"<title>{title}</title></head>\n"
        f"<body><p>{text}</p>\n{anchors}</body></html>\n"
    ).encode("utf-8")


def _chunked(body: bytes, size: int = 100) -> bytes:
    parts = [body[i : i + size] for i in range(0, len(body), size)]
    return b"".join(b"%x\r\n%s\r\n" % (len(part), part) for part in parts) + b"0\r\n\r\n"


SEED = _page(
    "2013-06-03T08:00:00Z",
    "Hochwasser in Süddeutschland",
    "Das Hochwasser erreicht München. Die Isar führt so viel Wasser wie seit Jahren "
    "nicht, Straßen sind gesperrt, und die Feuerwehr räumt überflutete Keller.",
    ["/München", "/M%c3%bcnchen", "http://münchen.de/"],
)
MUENCHEN = _page(
    "2013-06-04T09:30:00Z",
    "Lage in München",
    "Der Pegel der Isar steigt weiter. Anwohner müssen ihre Häuser räumen, "
    "Helfer füllen Sandsäcke, und die Überschwemmung bedroht die Brücken.",
    ["/"],
)
STADT = _page(
    "2013-06-05T12:00:00Z",
    "Stadt München",
    "Die Stadt warnt vor dem Hochwasser an der Isar. Bürger sollen überflutete "
    "Straßen meiden und die Hinweise der Feuerwehr befolgen.",
    ["/Fußball", "http://nachrichten.test/"],
)
FUSSBALL = _page(
    "2013-05-25T20:00:00Z",
    "Fußball",
    "Im Endspiel gewinnt die Mannschaft aus München. Die Fans feiern auf dem "
    "Marienplatz bis spät in die Nacht.",
    [],
)
PAGES = [
    {"url": "http://nachrichten.test/", "body": SEED, "date_iso": "2013-06-03T10:00:00Z"},
    {
        "url": "http://nachrichten.test/M%C3%BCnchen",
        "http_headers": [*_HTML, b"Content-Encoding: gzip"],
        "body": gzip_member(MUENCHEN),
        "date_iso": "2013-06-04T10:00:00Z",
    },
    {
        "url": "http://xn--mnchen-3ya.de/",
        "http_headers": [*_HTML, b"Transfer-Encoding: chunked"],
        "body": _chunked(STADT),
        "date_iso": "2013-06-05T13:00:00Z",
    },
    {
        "url": "http://xn--mnchen-3ya.de/Fu%C3%9Fball",
        "body": FUSSBALL,
        "date_iso": "2013-05-26T08:00:00Z",
    },
]
SPEC = {
    "name": "hochwasser-2013",
    "topical": {
        "reference_documents": [
            {
                "kind": "inline",
                "value": "Hochwasser an Isar und Donau: Pegel steigen, Straßen und Keller "
                "sind überflutet, die Feuerwehr füllt Sandsäcke gegen die Überschwemmung.",
            }
        ],
        "keywords": ["Hochwasser"],
        "language": "de",
    },
    "temporal": {
        "event_start": "2013-06-01",
        "event_end": "2013-06-15",
        "lead_time": "1w",
        "cool_down_time": "2w",
    },
    "seeds": ["http://nachrichten.test/"],
    "target_size": 10,
}

# SHA-256 of every output. The collection WARC is hashed inflated, the index
# and the command output with the run directory stripped.
DIGESTS = {
    "stdout": "013af9d8318ca992aae159437634276638b4675c981fb4b3734881f6b2d6f5a8",
    "collection.warc": "2e2e2ed78559e38197b9ac9e6fa31874fc447a63a8e8ed6383eb49ea917a673c",
    "index.cdx": "4d1efe1e931a9f59a42a243622036c2b10904ba17a36c7592224d8ac39962941",
    "manifest.csv": "476b252cf1412e700f279f3f62ca189547ede64b9ce301690bb18c213430ec2d",
    "edges.csv": "95a49ed2816a7ef8a9c3f7ed126f9ed194f04f1b4f40cd7c1e354896ea489378",
    "trace.csv": "8a913c05beba84a442b491b9a611e52d68c74b2004fdbb2ce34bfcd78883c543",
    "run_summary.csv": "15a5b602267423d0d6175605359217d226bc020e58e8bd10d17081c359233551",
    "accumulated_relevance.csv": "3ab2f7bfa29a81d7bdd9990e795d7d457119b0c4c06a8003eb86bf6f6e37627d",
    "summary.csv": "a92f9b284be9136d352040afd4670a6492807dd558cd8daa2159ce89b523c43f",
}


def test_umlaut_crawl_fetches_every_spelling_and_writes_the_same_bytes(tmp_path, capsys):
    warc_dir, index = tmp_path / "warcs", tmp_path / "index.cdx"
    crawl_dir, eval_dir = tmp_path / "crawl", tmp_path / "eval"
    warc_dir.mkdir()
    write_warc(warc_dir / "de.warc.gz", PAGES)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC, ensure_ascii=False), encoding="utf-8")
    inputs = ["--spec", str(spec), "--index", str(index)]
    for argv in (
        ["index", "--warc-dir", str(warc_dir), "--index", str(index)],
        ["crawl", *inputs, "--out", str(crawl_dir)],
        ["eval", *inputs, "--checkpoint", "1", "--out", str(eval_dir)],
    ):
        assert main(argv) == 0, argv
    out, err = capsys.readouterr()
    assert err == ""

    with open(crawl_dir / "manifest.csv", newline="", encoding="utf-8") as handle:
        fetched = {row["url"] for row in csv.DictReader(handle)}
    assert fetched == {
        "http://nachrichten.test/",
        "http://nachrichten.test/M%C3%BCnchen",
        "http://xn--mnchen-3ya.de/",
        "http://xn--mnchen-3ya.de/Fu%C3%9Fball",
    }
    outputs = {
        "stdout": out.replace(f"{tmp_path}/", "").encode("utf-8"),
        "collection.warc": gzip.decompress((crawl_dir / "collection.warc.gz").read_bytes()),
        "index.cdx": index.read_bytes().replace(f"{tmp_path.resolve()}/".encode(), b""),
    }
    for name in ("manifest.csv", "edges.csv", "trace.csv", "run_summary.csv"):
        outputs[name] = (crawl_dir / name).read_bytes()
    for name in ("accumulated_relevance.csv", "summary.csv"):
        outputs[name] = (eval_dir / name).read_bytes()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == DIGESTS
