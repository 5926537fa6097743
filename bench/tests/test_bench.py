"""The benchmark's own tests, at a tiny input size.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import checks  # noqa: E402
from checks import check_crawl, check_index  # noqa: E402
from inputs import Sizes, import_eventcrawl  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = {
    "ingest": Sizes(80, 1, 120, 12, "none", 30, 0.0, True, False),
    "crawl": Sizes(80, 2, 200, 20, "en", 30, 0.05, False, True),
    "eval": Sizes(150, 1, 120, 12, "none", 40, 0.0, False, True),
}
SEED = 5


def _units(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def test_benchmark_json_matches_the_code():
    assert _units("end_to_end") == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.CYCLE)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_end_to_end_metric_is_emitted(workload):
    result = run.run(workload, SEED, 0.1, trace=False, sizes=TINY[workload])
    assert result["problems"] == []
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_per_layer_metric_is_traced(workload):
    result = run.run(workload, SEED, 0.1, trace=True, sizes=TINY[workload])
    assert result["problems"] == []
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _units("per_layer")
    if workload == "ingest":  # a traced open child opens the index once, like one sample of open_s
        captures = result["metrics"]["archive.open.captures"]["value"]
        assert captures == result["environment"]["inputs"]["captures"]


@pytest.fixture
def bench(tmp_path):
    def make(workload):
        instance = run.Bench(workload, SEED, TINY[workload], tmp_path)
        instance.setup()
        return instance

    return make


def test_index_check_tells_apart_captures_with_the_same_url_and_time(bench, monkeypatch):
    # Both crawl captures hold the hub at the event start, with different links.
    instance = bench("crawl")
    monkeypatch.setattr(checks, "SAMPLE_FETCHES", 10**6)
    assert check_index(instance.inputs / "index.cdx", instance.truth, SEED) == []


def test_repeated_set_up_rebuilds_the_same_inputs(bench):
    instance = bench("crawl")
    setup_s, index_s = instance.setup()
    assert setup_s > index_s > 0
    instance.truth.record = dict(instance.truth.record, warc_bytes=0)
    with pytest.raises(RuntimeError, match="other inputs"):
        instance.setup()


def test_truncated_collection_trips_the_crawl_check(bench, tmp_path):
    instance = bench("crawl")
    out = tmp_path / "out"
    step = instance.crawl(instance.inputs / "index.cdx", out)
    assert step.problems == []
    collection = out / "collection.warc.gz"
    collection.write_bytes(collection.read_bytes()[:-200])
    problems, *_ = check_crawl(out, instance.truth)
    assert any("re-indexes" in problem for problem in problems)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_writes_the_same_outputs(bench, tmp_path, workload):
    instance = bench(workload)
    plain = instance.cycle(run.PRIMARY[workload], tmp_path / "plain")
    traced = instance.cycle(run.PRIMARY[workload], tmp_path / "traced", traced=True)
    for command in run.PRIMARY[workload]:
        assert plain[command].problems == traced[command].problems == []
        assert plain[command].digest == traced[command].digest != ""
        assert (tmp_path / "traced" / f"{command}.spans.json").is_file()


def test_missing_binding_stops_the_traced_run(monkeypatch):
    eventcrawl = import_eventcrawl()
    monkeypatch.delattr(importlib.import_module("eventcrawl.cli"), "fetch_document")
    with pytest.raises(tracing.HookError, match=r"eventcrawl\.cli .*fetch_document"):
        tracing.install(tracing.Tracer("test"), eventcrawl)


def test_missing_function_stops_the_traced_run(monkeypatch):
    eventcrawl = import_eventcrawl()
    monkeypatch.delattr(eventcrawl.crawler.Frontier, "push")
    with pytest.raises(tracing.HookError, match=r"eventcrawl\.crawler\.Frontier\.push"):
        tracing.install(tracing.Tracer("test"), eventcrawl)
