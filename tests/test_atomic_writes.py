"""Every output file is replaced whole: a failed write leaves the previous file."""

import json
import re
from pathlib import Path

import pytest

import eventcrawl.cli as cli
from eventcrawl import warc
from eventcrawl.archive import replacing, write_csv
from eventcrawl.cli import main

CRAWL_OUTPUTS = ["collection.warc.gz", "edges.csv", "manifest.csv", "run_summary.csv", "trace.csv"]
EVAL_OUTPUTS = ["accumulated_relevance.csv", "summary.csv"]


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestReplacing:
    def test_success_replaces_the_file_and_creates_its_directory(self, tmp_path):
        target = tmp_path / "new" / "dir" / "out.txt"
        with replacing(target) as temp:
            assert temp.parent == target.parent
            assert re.fullmatch(r"out\.txt\.[0-9]+\.tmp", temp.name)
            temp.write_bytes(b"new")
            assert not target.exists()
        assert target.read_bytes() == b"new"
        assert [p.name for p in target.parent.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failure_keeps_the_old_file_and_removes_the_temp_file(self, tmp_path, error):
        target = tmp_path / "out.txt"
        target.write_bytes(b"old")
        with pytest.raises(error):
            with replacing(target) as temp:
                temp.write_bytes(b"partial")
                raise error("injected")
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_before_the_temp_file_exists(self, tmp_path):
        with pytest.raises(ValueError):
            with replacing(tmp_path / "out.txt"):
                raise ValueError("injected")
        assert list(tmp_path.iterdir()) == []


class TestWriteCsv:
    def test_line_ends(self, tmp_path):
        write_csv(tmp_path / "a.csv", ["x", "y"], [[1, "a,b"]])
        write_csv(tmp_path / "b.csv", ["x", "y"], [[1, "a,b"]], lineterminator="\n")
        assert (tmp_path / "a.csv").read_bytes() == b'x,y\r\n1,"a,b"\r\n'
        assert (tmp_path / "b.csv").read_bytes() == b'x,y\n1,"a,b"\n'

    def test_a_failing_row_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "a.csv"
        write_csv(target, ["x"], [[1]])
        with pytest.raises(OSError):
            write_csv(target, ["x"], [[2], [_Unwritable()]])
        assert target.read_bytes() == b"x\r\n1\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


class _Unwritable:
    """A CSV field whose text cannot be produced, as if the disk filled up mid-file."""

    def __str__(self):
        raise OSError("injected write failure")


@pytest.fixture
def inputs(tmp_path):
    gen = tmp_path / "gen"
    index = tmp_path / "index.cdx"
    argv = ["gen", "--out", str(gen), "--seed", "4", "--pages", "120", "--target-size", "40"]
    assert main(argv) == 0
    assert main(["index", "--warc-dir", str(gen), "--index", str(index)]) == 0
    return ["--spec", str(gen / "spec.json"), "--index", str(index)]


@pytest.mark.parametrize("records_before_failure", [0, 1, 15])
@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt, ValueError])
def test_failed_crawl_rerun_leaves_every_previous_output(
    inputs, tmp_path, monkeypatch, capsys, records_before_failure, error
):
    out = tmp_path / "run"
    assert main(["crawl", *inputs, "--strategy", "ct-f", "--out", str(out)]) == 0
    before = _files(out)
    assert sorted(before) == CRAWL_OUTPUTS

    real = warc.WarcWriter.write_record_bytes
    written = []

    def fail_after_n_records(self, raw):
        if len(written) == records_before_failure:
            raise error("injected write failure")
        written.append(raw)
        return real(self, raw)

    # A different strategy, so that a completed rerun would change every output.
    rerun = ["crawl", *inputs, "--strategy", "unfocused", "--out", str(out)]
    monkeypatch.setattr(warc.WarcWriter, "write_record_bytes", fail_after_n_records)
    capsys.readouterr()
    if error is KeyboardInterrupt:
        with pytest.raises(error):
            main(rerun)
    else:
        assert main(rerun) == 2
        assert capsys.readouterr().err == "error: injected write failure\n"
    assert len(written) == records_before_failure
    assert _files(out) == before

    monkeypatch.undo()
    assert main(rerun) == 0
    after = _files(out)
    assert sorted(after) == CRAWL_OUTPUTS
    assert all(after[name] != before[name] for name in CRAWL_OUTPUTS)


def test_failed_eval_rerun_leaves_every_previous_output(inputs, tmp_path, monkeypatch, capsys):
    out = tmp_path / "eval"
    assert main(["eval", *inputs, "--checkpoint", "10", "--out", str(out)]) == 0
    before = _files(out)
    assert sorted(before) == EVAL_OUTPUTS

    real = cli.run_comparison

    def with_an_unwritable_last_row(*args, **kwargs):
        report = real(*args, **kwargs)
        checkpoints = report.runs[-1].checkpoints
        checkpoints[-1] = (_Unwritable(), checkpoints[-1][1])
        return report

    monkeypatch.setattr(cli, "run_comparison", with_an_unwritable_last_row)
    capsys.readouterr()
    assert main(["eval", *inputs, "--checkpoint", "7", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: injected write failure\n"
    assert _files(out) == before


@pytest.mark.parametrize(
    "error, message",
    [
        (PermissionError(13, "Permission denied", "pages.warc.gz"), "[Errno 13] Permission denied: "),
        (ValueError("injected bad value"), "injected bad value"),
    ],
    ids=["PermissionError", "ValueError"],
)
def test_eval_rerun_that_cannot_read_a_record_leaves_every_previous_output(
    inputs, tmp_path, monkeypatch, capsys, error, message
):
    out = tmp_path / "eval"
    assert main(["eval", *inputs, "--checkpoint", "10", "--out", str(out)]) == 0
    before = _files(out)
    assert sorted(before) == EVAL_OUTPUTS

    def unreadable(path, offset, length):
        raise error

    monkeypatch.setattr(warc, "read_record_span", unreadable)
    capsys.readouterr()
    assert main(["eval", *inputs, "--checkpoint", "7", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert _files(out) == before


def test_refused_eval_rerun_leaves_every_previous_output(inputs, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(["eval", *inputs, "--checkpoint", "10", "--out", str(out)]) == 0
    before = _files(out)
    assert sorted(before) == EVAL_OUTPUTS

    spec_path = Path(inputs[1])
    body = json.loads(spec_path.read_text(encoding="utf-8"))
    body["topical"]["reference_documents"] = [
        {"kind": "archive-url", "value": "http://archive.test/absent"}
    ]
    refused = tmp_path / "refused.json"
    refused.write_text(json.dumps(body), encoding="utf-8")
    argv = ["eval", "--spec", str(refused), *inputs[2:], "--checkpoint", "10", "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["unfocused", "c-f", "t-f", "ct-f"]
    assert all(": ERROR: unresolvable reference document" in line for line in lines)
    assert captured.err == ""
    assert _files(out) == before


def test_every_file_write_goes_through_replacing():
    source = Path(cli.__file__).parent
    pattern = re.compile(r'write_text|write_bytes|os\.replace|open\([^)]*"[wax]')
    found = [
        f"{path.name}: {line.strip()}"
        for path in sorted(source.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if pattern.search(line)
    ]
    # replacing and open_replacing, and WarcWriter, which library code hands a temp path.
    assert found == [
        "archive.py: os.replace(temp_path, path)",
        "archive.py: with replacing(path) as temp, "
        'open(temp, "w", encoding="utf-8", newline="") as handle:',
        'warc.py: self._handle = open(self.path, "wb")',
    ]
