import argparse
import csv
import gzip
import hashlib
import json
import math

import pytest

from eventcrawl.cli import _build_parser, main

from conftest import page_html, write_warc


@pytest.fixture
def archive_dir(tmp_path):
    warc_dir = tmp_path / "warcs"
    warc_dir.mkdir()
    write_warc(
        warc_dir / "one.warc.gz",
        [
            {"url": "http://e.de/seed", "body": '<p>alpha beta</p><a href="/r1">x</a>'},
            {"url": "http://e.de/r1", "body": "<p>alpha</p>"},
        ],
    )
    return warc_dir


@pytest.fixture
def spec_path(tmp_path):
    body = {
        "name": "cli-test",
        "topical": {
            "reference_documents": [{"kind": "inline", "value": "alpha beta gamma"}],
            "keywords": [],
            "language": "en",
        },
        "temporal": {
            "event_start": "2011-03-01",
            "event_end": "2011-03-14",
            "lead_time": "2w",
            "cool_down_time": "4w",
        },
        "seeds": ["http://e.de/seed"],
        "target_size": 100,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    return path


class TestIndexCommand:
    def test_happy_path(self, archive_dir, tmp_path, capsys):
        code = main(["index", "--warc-dir", str(archive_dir), "--index", str(tmp_path / "i.cdx")])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 records" in out and "2 URLs" in out

    def test_reports_left_out_records_on_a_second_line(self, tmp_path, capsys):
        warc_dir = tmp_path / "warcs"
        warc_dir.mkdir()
        write_warc(
            warc_dir / "one.warc.gz",
            [
                {"url": "http://e.de/1", "body": "x"},
                {"url": "http://e.de/2", "body": "x", "status": 404},
                {"url": "http://e.de/3", "body": "x", "date_iso": "0001-01-01T00:00:00+01:00"},
            ],
        )
        with open(warc_dir / "one.warc.gz", "ab") as handle:
            handle.write(b"\x1f\x8bnot really gzip")
        assert main(["index", "--warc-dir", str(warc_dir), "--index", str(tmp_path / "i.cdx")]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first.startswith("indexed 1 records for 1 URLs (1 skipped) -> ")
        assert second == (
            "left out 2 records: 0 not a response, 0 no URI or date, 1 bad date, "
            "0 bad HTTP head, 1 not 200, 0 not HTML, 0 not canonicalizable"
        )

    def test_empty_dir_warns_but_succeeds(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["index", "--warc-dir", str(empty), "--index", str(tmp_path / "i.cdx")])
        assert code == 0
        assert "no WARC files" in capsys.readouterr().err

    def test_missing_dir_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["index", "--warc-dir", str(tmp_path / "nope"), "--index", str(tmp_path / "i.cdx")]
        )
        assert code == 2

    def test_warc_path_with_a_line_break_is_usage_error(self, archive_dir, tmp_path, capsys):
        write_warc(archive_dir / "a\nb.warc", [{"url": "http://e.de/2", "body": "x"}])
        code = main(["index", "--warc-dir", str(archive_dir), "--index", str(tmp_path / "i.cdx")])
        assert code == 2
        assert "line break" in capsys.readouterr().err
        assert not (tmp_path / "i.cdx").exists()


class TestCrawlCommand:
    def test_happy_path_writes_artifacts(self, archive_dir, spec_path, tmp_path, capsys):
        index_path = tmp_path / "i.cdx"
        assert main(["index", "--warc-dir", str(archive_dir), "--index", str(index_path)]) == 0
        out_dir = tmp_path / "out"
        code = main(
            [
                "crawl",
                "--spec",
                str(spec_path),
                "--index",
                str(index_path),
                "--strategy",
                "ct-f",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        for name in ("collection.warc.gz", "manifest.csv", "edges.csv", "trace.csv", "run_summary.csv"):
            assert (out_dir / name).exists(), name

    def test_collection_write_reads_no_record_after_the_crawl(
        self, archive_dir, spec_path, tmp_path, monkeypatch
    ):
        import eventcrawl.archive as archive
        import eventcrawl.cli as cli
        import eventcrawl.warc as warc

        real_run_crawl = cli.run_crawl

        def forbidden(*args, **kwargs):
            raise AssertionError("a record was fetched or scanned after the crawl")

        def crawl_then_forbid_fetches(*args, **kwargs):
            result = real_run_crawl(*args, **kwargs)
            monkeypatch.setattr(warc, "read_record_span", forbidden)
            monkeypatch.setattr(archive, "scan_html", forbidden)
            return result

        monkeypatch.setattr(cli, "run_crawl", crawl_then_forbid_fetches)
        index_path = tmp_path / "i.cdx"
        assert main(["index", "--warc-dir", str(archive_dir), "--index", str(index_path)]) == 0
        out_dir = tmp_path / "out"
        argv = ["crawl", "--spec", str(spec_path), "--index", str(index_path), "--out", str(out_dir)]
        assert main(argv) == 0
        edges = (out_dir / "edges.csv").read_text().splitlines()
        assert edges == ["src_url,dst_url", "http://e.de/seed,http://e.de/r1"]

    def test_unknown_strategy_is_usage_error(self, archive_dir, spec_path, tmp_path, capsys):
        index_path = tmp_path / "i.cdx"
        main(["index", "--warc-dir", str(archive_dir), "--index", str(index_path)])
        code = main(
            [
                "crawl",
                "--spec",
                str(spec_path),
                "--index",
                str(index_path),
                "--strategy",
                "bogus",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        for name in ("unfocused", "c-f", "t-f", "ct-f"):
            assert name in err

    def test_invalid_spec_is_validation_error(self, archive_dir, tmp_path, capsys):
        index_path = tmp_path / "i.cdx"
        main(["index", "--warc-dir", str(archive_dir), "--index", str(index_path)])
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "name": "x",
                    "topical": {"reference_documents": [{"kind": "inline", "value": "t"}]},
                    "temporal": {"event_start": "2011-03-14", "event_end": "2011-03-01"},
                    "seeds": ["http://e.de/seed"],
                }
            ),
            encoding="utf-8",
        )
        code = main(
            [
                "crawl",
                "--spec",
                str(bad),
                "--index",
                str(index_path),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "event_start" in capsys.readouterr().err


    def test_unresolvable_reference_exits_before_writing(
        self, archive_dir, spec_path, tmp_path, capsys
    ):
        index_path = tmp_path / "i.cdx"
        assert main(["index", "--warc-dir", str(archive_dir), "--index", str(index_path)]) == 0
        body = json.loads(spec_path.read_text(encoding="utf-8"))
        body["topical"]["reference_documents"] = [
            {"kind": "archive-url", "value": "http://e.de/absent"}
        ]
        spec = tmp_path / "ref.json"
        spec.write_text(json.dumps(body), encoding="utf-8")
        out_dir = tmp_path / "out"
        argv = ["--spec", str(spec), "--index", str(index_path), "--out", str(out_dir)]
        assert main(["crawl", *argv]) == 1
        assert "error: invalid spec: unresolvable reference document" in capsys.readouterr().err
        assert not out_dir.exists()
        # eval records the failure on every strategy instead.
        assert main(["eval", *argv]) == 3


def test_half_life_gamma_scores_half_one_lead_or_cool_down_away(spec_path, tmp_path):
    # The spec's interval is 2011-03-01T00:00:00 .. 2011-03-14T23:59:59,
    # with a lead of 2 weeks and a cool-down of 4 weeks.
    warc_dir = tmp_path / "warcs"
    warc_dir.mkdir()
    before, after = "http://e.de/before", "http://e.de/after"

    def published(when):
        return page_html(meta={"article:published_time": when})

    write_warc(
        warc_dir / "one.warc.gz",
        [
            {"url": "http://e.de/seed", "body": page_html("alpha", [before, after])},
            {"url": before, "body": published("2011-02-15T00:00:00Z")},
            {"url": after, "body": published("2011-04-11T23:59:59Z")},
        ],
    )
    index_path = tmp_path / "i.cdx"
    assert main(["index", "--warc-dir", str(warc_dir), "--index", str(index_path)]) == 0
    temporal = {}
    for flags, name in (([], "e"), (["--half-life-gamma"], "half")):
        out_dir = tmp_path / name
        argv = ["--spec", str(spec_path), "--index", str(index_path), "--out", str(out_dir)]
        assert main(["crawl", *argv, *flags]) == 0
        with open(out_dir / "trace.csv", encoding="utf-8", newline="") as handle:
            temporal[name] = {row["url"]: float(row["temporal"]) for row in csv.DictReader(handle)}
    for url in (before, after):
        assert temporal["e"][url] == pytest.approx(math.exp(-1), abs=1e-12)
        assert temporal["half"][url] == pytest.approx(0.5, abs=1e-12)


def test_dates_at_the_ends_of_the_calendar_index_crawl_and_eval(spec_path, tmp_path, capsys):
    warc_dir = tmp_path / "warcs"
    warc_dir.mkdir()
    old, late = "http://e.de/old", "http://e.de/late"
    too_late = "9999-12-31T23:59:59-01:00"
    write_warc(
        warc_dir / "one.warc.gz",
        [
            {"url": "http://e.de/seed", "body": page_html("alpha", [old, late])},
            {"url": old, "body": page_html("alpha"), "date_iso": "0999-01-01T00:00:00Z"},
            # A meta date that leaves the UTC range falls through to the capture time.
            {"url": late, "body": page_html(meta={"article:published_time": too_late})},
        ],
    )
    index_path = tmp_path / "i.cdx"
    assert main(["index", "--warc-dir", str(warc_dir), "--index", str(index_path)]) == 0
    assert "indexed 3 records for 3 URLs" in capsys.readouterr().out
    argv = ["--spec", str(spec_path), "--index", str(index_path)]
    assert main(["crawl", *argv, "--out", str(tmp_path / "crawl")]) == 0
    with open(tmp_path / "crawl" / "manifest.csv", encoding="utf-8", newline="") as handle:
        captures = {row["url"]: row["capture_time"] for row in csv.DictReader(handle)}
    assert captures[old] == "09990101000000"
    with open(tmp_path / "crawl" / "trace.csv", encoding="utf-8", newline="") as handle:
        temporal = {row["url"]: float(row["temporal"]) for row in csv.DictReader(handle)}
    assert temporal[late] == 1.0  # captured inside the event interval
    assert main(["eval", *argv, "--out", str(tmp_path / "eval")]) == 0


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = _build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_every_option_has_help_text():
    missing = [
        f"{name} {action.option_strings[-1]}"
        for name, sub in _subcommands().items()
        for action in sub._actions
        if action.option_strings and not action.help
    ]
    assert missing == []


def test_crawl_and_eval_share_their_input_options():
    help_of = {
        name: {a.dest: a.help for a in sub._actions}
        for name, sub in _subcommands().items()
        if name in ("crawl", "eval")
    }
    for dest in ("spec", "index", "out", "idf", "half_life_gamma"):
        assert help_of["crawl"][dest] == help_of["eval"][dest]


@pytest.mark.parametrize("command", ["validate", "crawl", "eval"])
def test_nan_duration_is_invalid_spec(command, archive_dir, spec_path, tmp_path, capsys):
    index_path = tmp_path / "i.cdx"
    assert main(["index", "--warc-dir", str(archive_dir), "--index", str(index_path)]) == 0
    body = json.loads(spec_path.read_text(encoding="utf-8"))
    body["temporal"]["lead_time"] = float("nan")
    spec = tmp_path / "nan.json"
    spec.write_text(json.dumps(body), encoding="utf-8")  # writes the bare token NaN
    argv = [command, "--spec", str(spec)]
    if command != "validate":
        argv += ["--index", str(index_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "NaN duration" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["crawl", "eval"])
@pytest.mark.parametrize("fault", ["missing", "no-header", "corpus-size-without-number"])
def test_unreadable_idf_is_usage_error(command, fault, archive_dir, spec_path, tmp_path, capsys):
    index_path = tmp_path / "i.cdx"
    assert main(["index", "--warc-dir", str(archive_dir), "--index", str(index_path)]) == 0
    idf = tmp_path / "idf.tsv"
    if fault == "no-header":
        idf.write_text("alpha\t1\n", encoding="utf-8")
    elif fault == "corpus-size-without-number":
        idf.write_text("#corpus_size\nalpha\t1\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = [command, "--spec", str(spec_path), "--index", str(index_path), "--out", str(out_dir)]
    assert main([*argv, "--idf", str(idf)]) == 2
    assert "error: cannot load IDF dictionary: " in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["crawl", "eval", "gen"])
def test_out_below_a_regular_file_is_one_error_line(
    command, archive_dir, spec_path, tmp_path, capsys
):
    index_path = tmp_path / "i.cdx"
    assert main(["index", "--warc-dir", str(archive_dir), "--index", str(index_path)]) == 0
    afile = tmp_path / "afile"
    afile.write_text("x", encoding="utf-8")
    if command == "gen":
        argv = ["gen", "--out", str(afile / "y"), "--pages", "20"]
    else:
        argv = [command, "--spec", str(spec_path), "--index", str(index_path)]
        argv += ["--out", str(afile / "x")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["crawl", "eval"])
def test_unreadable_snapshot_in_a_crawl_is_one_error_line(
    command, archive_dir, spec_path, tmp_path, monkeypatch, capsys
):
    import eventcrawl.warc as warc

    index_path = tmp_path / "i.cdx"
    assert main(["index", "--warc-dir", str(archive_dir), "--index", str(index_path)]) == 0

    def unreadable(path, offset, length):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(warc, "read_record_span", unreadable)
    out_dir = tmp_path / "out"
    argv = [command, "--spec", str(spec_path), "--index", str(index_path), "--out", str(out_dir)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 13] Permission denied: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--pages", "10", "--relevant-fraction", "0.96"], "leave room for background"),
        (
            ["--event-start", "0001-01-02", "--event-end", "0001-01-03", "--spread", "1000y"],
            "capture window must lie within years 1-9999 UTC",
        ),
        (["--spread", "9" * 400], "capture window must lie within years 1-9999 UTC"),
        (
            ["--event-start", "2011-03-14", "--event-end", "2011-03-01"],
            "temporal.event_start: event_start must not be after event_end",
        ),
        (["--target-size", "0"], "target_size: target_size must be >= 1"),
    ],
    ids=[
        "no-background-page",
        "window-before-year-1",
        "infinite-spread",
        "reversed-event",
        "no-target-size",
    ],
)
def test_gen_refuses_what_it_cannot_generate(flags, message, tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["gen", "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


class TestValidateCommand:
    def test_valid_spec(self, spec_path, capsys):
        assert main(["validate", "--spec", str(spec_path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["validate", "--spec", str(bad)]) == 1

    @pytest.mark.parametrize("path, kind", [("topical.keywords", "array"), ("topical", "object")])
    def test_member_of_the_wrong_json_type_is_invalid_spec(
        self, spec_path, tmp_path, capsys, path, kind
    ):
        body = json.loads(spec_path.read_text(encoding="utf-8"))
        scope, _, key = path.rpartition(".")
        (body[scope] if scope else body)[key] = "flood"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body), encoding="utf-8")
        assert main(["validate", "--spec", str(bad)]) == 1
        assert capsys.readouterr().err == f"invalid: {path} must be a JSON {kind}\n"

    def test_a_number_written_as_a_string_is_invalid_spec(self, spec_path, tmp_path, capsys):
        body = json.loads(spec_path.read_text(encoding="utf-8"))
        body["alpha"] = "0.5"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body), encoding="utf-8")
        assert main(["validate", "--spec", str(bad)]) == 1
        assert capsys.readouterr().err == "invalid: alpha must be a JSON number\n"


class TestGenAndEval:
    def test_gen_writes_archive_and_spec(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = main(
            [
                "gen",
                "--out",
                str(out),
                "--seed",
                "3",
                "--pages",
                "120",
                "--omit-fraction",
                "0.05",
                "--target-size",
                "60",
            ]
        )
        assert code == 0
        assert (out / "pages.warc.gz").exists()
        assert (out / "ground_truth.csv").exists()
        assert (out / "spec.json").exists()
        assert main(["validate", "--spec", str(out / "spec.json")]) == 0

    def test_eval_runs_all_strategies(self, tmp_path, capsys):
        out = tmp_path / "gen"
        main(["gen", "--out", str(out), "--seed", "3", "--pages", "120", "--target-size", "60"])
        index_path = tmp_path / "i.cdx"
        assert main(["index", "--warc-dir", str(out), "--index", str(index_path)]) == 0
        eval_dir = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--spec",
                str(out / "spec.json"),
                "--index",
                str(index_path),
                "--checkpoint",
                "20",
                "--out",
                str(eval_dir),
            ]
        )
        assert code == 0
        series = (eval_dir / "accumulated_relevance.csv").read_text().splitlines()
        strategies = {line.split(",")[0] for line in series[1:]}
        assert strategies == {"unfocused", "c-f", "t-f", "ct-f"}
        summary = (eval_dir / "summary.csv").read_text().splitlines()
        assert len(summary) == 5

    def test_eval_checkpoint_zero_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "eval",
                "--spec",
                "whatever.json",
                "--index",
                "idx",
                "--checkpoint",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "checkpoint must be positive" in capsys.readouterr().err

    def test_eval_deterministic_outputs(self, tmp_path):
        out = tmp_path / "gen"
        main(["gen", "--out", str(out), "--seed", "5", "--pages", "120", "--target-size", "60"])
        index_path = tmp_path / "i.cdx"
        main(["index", "--warc-dir", str(out), "--index", str(index_path)])

        def run_once(name):
            eval_dir = tmp_path / name
            assert (
                main(
                    [
                        "eval",
                        "--spec",
                        str(out / "spec.json"),
                        "--index",
                        str(index_path),
                        "--checkpoint",
                        "10",
                        "--strategy",
                        "unfocused,ct-f",
                        "--out",
                        str(eval_dir),
                    ]
                )
                == 0
            )
            return (
                (eval_dir / "accumulated_relevance.csv").read_bytes(),
                (eval_dir / "summary.csv").read_bytes(),
            )

        assert run_once("e1") == run_once("e2")

    def test_crawl_summary_matches_the_final_eval_checkpoint(self, tmp_path):
        out = tmp_path / "gen"
        # 100 scores, enough for a compensated sum to differ from eval's running one.
        main(["gen", "--out", str(out), "--seed", "11", "--pages", "300", "--target-size", "100"])
        index_path = tmp_path / "i.cdx"
        main(["index", "--warc-dir", str(out), "--index", str(index_path)])
        inputs = ["--spec", str(out / "spec.json"), "--index", str(index_path)]
        crawl_dir, eval_dir = tmp_path / "crawl", tmp_path / "eval"
        assert main(["crawl", *inputs, "--strategy", "ct-f", "--out", str(crawl_dir)]) == 0
        assert main(["eval", *inputs, "--strategy", "ct-f", "--checkpoint", "7", "--out", str(eval_dir)]) == 0
        with open(crawl_dir / "run_summary.csv", newline="") as handle:
            (summary,) = csv.DictReader(handle)
        with open(eval_dir / "accumulated_relevance.csv", newline="") as handle:
            final = list(csv.DictReader(handle))[-1]
        assert final["strategy"] == "ct-f" and final["documents_downloaded"] == summary["fetched"]
        assert summary["accumulated_relevance"] == final["accumulated_relevance"]


# SHA-256 of every output of one fixed gen -> index -> crawl -> eval run.
# The collection WARC is hashed after decompression, so a different zlib
# build cannot change its digest; the index is hashed with the run
# directory stripped from its WARC paths.
GOLDEN_DIGESTS = {
    "collection.warc": "99c6f2b141819516509caf9a30d36150b2ff1ae5ca890496efc2a80fe1e1318c",
    "index.cdx": "70bb032f876c0d1289b529558a423dc55449fbbfcf1c038cad621ceda720b6f2",
    "manifest.csv": "38b8673980e9a989b4ba53aed8a66b04105d14b63068aa43048332b632ec4e7c",
    "edges.csv": "31d40afec52bedbd32b2393de070196904d0f5b8558f319db1eb9a4f5c384c8e",
    "trace.csv": "80363b8ab19109904cc8031ee44ad1cb9a3ff57038d0aa96b64c33d49be17f84",
    "run_summary.csv": "f6f5173074a1f3cd8f583edf30c202e633bea020638d57649da70bcc09a6a172",
    "accumulated_relevance.csv": "6648494f8de5fe8bda33e2a5b1b0c13f551da5081803b0f1b37899aeaf80ad7c",
    "summary.csv": "517851f41da3a0692c8ae4849104e53c04be00541d35e0e4323ba51412a9d521",
}

# The same run with --half-life-gamma on crawl and eval.
GOLDEN_DIGESTS_HALF_LIFE = {
    **GOLDEN_DIGESTS,
    "manifest.csv": "97c67d9e1d1b53cb54b1e00cf88534642f0a9610d717eefb047186389dc18407",
    "trace.csv": "28656be75986921fde60e59f37eb6b952e17b77e709c9d4efed5e89e0fcc29d1",
}


@pytest.mark.parametrize(
    "flags, golden",
    [([], GOLDEN_DIGESTS), (["--half-life-gamma"], GOLDEN_DIGESTS_HALF_LIFE)],
    ids=["no-flag", "half-life-gamma"],
)
def test_outputs_match_golden_digests(flags, golden, tmp_path, capsys):
    gen, crawl_dir, eval_dir = tmp_path / "gen", tmp_path / "crawl", tmp_path / "eval"
    index_path = tmp_path / "index.cdx"
    spec = str(gen / "spec.json")
    argv_list = [
        ["gen", "--out", str(gen), "--seed", "11", "--pages", "300",
         "--omit-fraction", "0.03", "--target-size", "100"],
        ["index", "--warc-dir", str(gen), "--index", str(index_path)],
        ["crawl", "--spec", spec, "--index", str(index_path), "--out", str(crawl_dir), *flags],
        ["eval", "--spec", spec, "--index", str(index_path), "--checkpoint", "25",
         "--out", str(eval_dir), *flags],
    ]
    for argv in argv_list:
        assert main(argv) == 0, argv
    outputs = {
        "collection.warc": gzip.decompress((crawl_dir / "collection.warc.gz").read_bytes()),
        "index.cdx": index_path.read_bytes().replace(
            str(tmp_path.resolve()).encode() + b"/", b""
        ),
    }
    for name in ("manifest.csv", "edges.csv", "trace.csv", "run_summary.csv"):
        outputs[name] = (crawl_dir / name).read_bytes()
    for name in ("accumulated_relevance.csv", "summary.csv"):
        outputs[name] = (eval_dir / name).read_bytes()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == golden
