"""Outside-in tracing: wrappers around eventcrawl's public functions.

``install`` replaces every module attribute that binds a hooked function
(``from .x import y`` copies the binding, so one function can live in
several modules) with a wrapper that records a span: name, start, end,
parent span and run id, plus a small value taken from the call's
arguments or result. Private helpers are not wrapped; their time shows
as the calling span's self time. Spans stay in memory until ``dump``.

``layer_metrics`` turns the spans of one traced run into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pkgutil
import statistics
from collections import defaultdict
from time import perf_counter


class HookError(RuntimeError):
    """A hooked function or one of its listed bindings no longer exists."""


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


def _crawl_info(args, kwargs, result):
    strategy = _arg(args, kwargs, 2, "strategy")
    actions = defaultdict(int)
    for record in result.trace:
        actions[record.action] += 1
    return [getattr(strategy, "value", "ct-f"), actions["fetch"], actions["miss"], actions["skip"]]


# (span name, function, bindings, info). The function is
# ``module:qualname``; the bindings are the modules, besides its own, that
# must still import it. A missing function or binding stops the traced run
# with HookError. ``info`` maps (args, kwargs, result) to the span's value.
HOOKS = [
    ("warc.scan", "warc:iter_raw_records", [], None),
    ("warc.read_span", "warc:read_record_span", [], lambda a, k, r: _arg(a, k, 2, "length")),
    ("warc.read_span", "warc:read_raw_span", [], lambda a, k, r: _arg(a, k, 2, "length")),
    ("warc.write", "warc:WarcWriter.write_record_bytes", [], lambda a, k, r: r[1]),
    (
        "archive.build_index",
        "archive:build_index",
        ["cli", "__init__"],
        lambda a, k, r: [os.path.getsize(_arg(a, k, 1, "index_path")), r.record_count],
    ),
    ("archive.open", "archive:ArchiveIndex.open", [], lambda a, k, r: r.record_count),
    ("archive.resolve", "archive:ArchiveIndex.resolve_snapshots", [], lambda a, k, r: len(r)),
    (
        "archive.fetch",
        "archive:fetch_document",
        ["crawler", "cli", "__init__"],
        lambda a, k, r: f"{r.snapshot.warc_file}@{r.snapshot.offset}",
    ),
    (
        "archive.write_collection",
        "archive:write_collection",
        ["cli", "__init__"],
        lambda a, k, r: [r.record_count, r.edge_count],
    ),
    ("htmlscan.scan", "htmlscan:scan_html", ["archive"], lambda a, k, r: len(a[0].encode("utf-8"))),
    (
        "htmlscan.outlinks",
        "htmlscan:outlinks",
        ["archive", "crawler"],
        lambda a, k, r: [len(a[0].links), len(r)],
    ),
    (
        "urlnorm.canonicalize",
        "urlnorm:canonicalize_url",
        ["archive", "htmlscan", "crawler", "__init__"],
        None,
    ),
    ("text.tokens", "text:Analyzer.tokens", [], lambda a, k, r: len(r)),
    ("text.vectorize", "text:vectorize", ["crawler", "__init__"], lambda a, k, r: len(r.weights)),
    ("text.reference", "text:build_reference_vector", ["crawler", "__init__"], None),
    ("relevance.topical", "relevance:topical_relevance", ["crawler", "__init__"], None),
    (
        "relevance.doc_time",
        "relevance:extract_document_time",
        ["crawler", "__init__"],
        lambda a, k, r: r.source.value,
    ),
    ("relevance.temporal", "relevance:temporal_relevance", ["crawler", "__init__"], None),
    ("crawler.run", "crawler:run_crawl", ["cli", "evalharness", "__init__"], _crawl_info),
    ("crawler.frontier.push", "crawler:Frontier.push", [], lambda a, k, r: len(a[0])),
    ("crawler.frontier.pop", "crawler:Frontier.pop", [], None),
    ("crawler.select", "crawler:select_snapshot", ["__init__"], None),
    ("evalharness.compare", "evalharness:run_comparison", ["cli", "__init__"], None),
    (
        "timeutil.parse_iso8601",
        "timeutil:parse_iso8601",
        ["archive", "relevance", "cli"],
        None,
    ),
    ("timeutil.parse_ts14", "timeutil:parse_ts14", ["archive", "relevance", "evalharness"], None),
]

TIME_SOURCES = ("publication_metadata", "content_pattern", "url_pattern", "crawl_time_fallback")
STRATEGIES = ("unfocused", "c-f", "t-f", "ct-f")

_S, _N = ("s", "lower"), ("count", "higher")
# Every per-layer metric, with (unit, better). Counts of work done are
# "higher": at equal output, a change that drops them did less work per
# result only if it also moves a time, which has its own row.
PER_LAYER = {
    "warc.scan.records": _N,
    "warc.scan.bytes": ("B", "higher"),
    "warc.scan.busy_s": _S,
    "warc.scan.us_per_record.first_decile": ("us", "lower"),
    "warc.scan.us_per_record.last_decile": ("us", "lower"),
    "warc.read_span.calls": ("count", "lower"),
    "warc.read_span.bytes": ("B", "lower"),
    "warc.read_span.busy_s": _S,
    "warc.write.records": _N,
    "warc.write.bytes": ("B", "lower"),
    "archive.build_index.self_s": _S,
    "archive.index.bytes_per_capture": ("B", "lower"),
    "archive.open.s": _S,
    "archive.open.captures": _N,
    "archive.resolve.calls": ("count", "lower"),
    "archive.resolve.hits": _N,
    "archive.resolve.misses": ("count", "lower"),
    "archive.resolve.snapshots_per_hit": ("ratio", "higher"),
    "archive.resolve.busy_s": _S,
    "archive.fetch.calls": ("count", "lower"),
    "archive.fetch.self_s": _S,
    "archive.fetch.per_unique_snapshot": ("ratio", "lower"),
    "archive.write_collection.self_s": _S,
    "archive.write_collection.records": _N,
    "archive.write_collection.edges": _N,
    "htmlscan.scan.calls": ("count", "lower"),
    "htmlscan.scan.html_bytes": ("B", "lower"),
    "htmlscan.scan.busy_s": _S,
    "htmlscan.scan.per_unique_snapshot": ("ratio", "lower"),
    "htmlscan.outlinks.calls": ("count", "lower"),
    "htmlscan.outlinks.hrefs": _N,
    "htmlscan.outlinks.links": _N,
    "htmlscan.outlinks.self_s": _S,
    "urlnorm.canonicalize.calls": ("count", "lower"),
    "urlnorm.canonicalize.errors": ("count", "lower"),
    "urlnorm.canonicalize.busy_s": _S,
    "urlnorm.canonicalize.per_fetch": ("ratio", "lower"),
    "text.tokens.calls": ("count", "lower"),
    "text.tokens.tokens": _N,
    "text.tokens.busy_s": _S,
    "text.vectorize.calls": ("count", "lower"),
    "text.vectorize.terms": _N,
    "text.vectorize.self_s": _S,
    "text.reference.s": _S,
    "relevance.topical.calls": ("count", "lower"),
    "relevance.topical.busy_s": _S,
    "relevance.doc_time.calls": ("count", "lower"),
    "relevance.doc_time.busy_s": _S,
    **{f"relevance.doc_time.source.{source}": _N for source in TIME_SOURCES},
    "relevance.temporal.calls": ("count", "lower"),
    "crawler.run.self_s": _S,
    "crawler.pops": _N,
    "crawler.fetches": _N,
    "crawler.misses": ("count", "lower"),
    "crawler.skips": ("count", "lower"),
    "crawler.frontier.push.calls": ("count", "lower"),
    "crawler.frontier.pop.calls": ("count", "lower"),
    "crawler.frontier.busy_s": _S,
    "crawler.frontier.peak_len": ("count", "lower"),
    "crawler.select.calls": ("count", "lower"),
    "crawler.select.busy_s": _S,
    **{f"evalharness.strategy_s.{strategy}": _S for strategy in STRATEGIES},
    "evalharness.repeat_share": ("ratio", "lower"),
    "timeutil.parse_iso8601.calls": ("count", "lower"),
    "timeutil.parse_iso8601.busy_s": _S,
    "timeutil.parse_ts14.calls": ("count", "lower"),
    "timeutil.parse_ts14.busy_s": _S,
    "trace.overhead_share": ("ratio", "lower"),
}


class Tracer:
    """Collects spans in memory: [name, start, end, parent, run_id, info]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._scans = itertools.count()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.run_id, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(index)
                self.spans[index][5] = {"error": type(exc).__name__}
                raise
            self._close(index)
            if info is not None:
                self.spans[index][5] = info(args, kwargs, result)
            return result

        return traced

    def wrap_scan(self, name: str, fn):
        """Wrap a record generator: one span per record, tagged with its scan."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            scan_id = next(self._scans)
            records = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(records)
                except StopIteration:
                    self._close(index)
                    self.spans.pop()
                    return
                self._close(index)
                self.spans[index][5] = [scan_id, getattr(item, "length", -1)]
                yield item

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "spans": self.spans}, handle)


def load(paths) -> list[list]:
    """The spans of several dumps in one list, parent indices rebased."""
    spans: list[list] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)["spans"]
        offset = len(spans)
        spans += [span[:3] + [span[3] + offset if span[3] >= 0 else -1] + span[4:] for span in loaded]
    return spans


def _resolve(package, target: str):
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(f"{package.__name__}.{module_name}")
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise HookError(f"trace hook: {module.__name__}.{qualname} no longer exists")
    if parts[-1] not in vars(owner):
        raise HookError(f"trace hook: {module.__name__}.{qualname} no longer exists")
    return owner, parts[-1]


def install(tracer: Tracer, package) -> int:
    """Wrap every hooked function at every binding; return bindings patched.

    Raises HookError naming the first hooked function or listed binding
    that no longer exists, before anything is patched.
    """
    modules = [package] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")
    ]
    plan = []
    for name, target, bindings, info in HOOKS:
        owner, attr = _resolve(package, target)
        raw = vars(owner)[attr]
        function = raw.__func__ if isinstance(raw, classmethod) else raw
        for binding in bindings:
            module_name = package.__name__ if binding == "__init__" else f"{package.__name__}.{binding}"
            module = importlib.import_module(module_name)
            if not any(value is function for value in vars(module).values()):
                raise HookError(
                    f"trace hook: {module_name} no longer binds {target.replace(':', '.')}"
                )
        plan.append((name, owner, attr, raw, function, info))

    patched = 0
    for name, owner, attr, raw, function, info in plan:
        if name == "warc.scan":
            wrapper = tracer.wrap_scan(name, function)
        else:
            wrapper = tracer.wrap(name, function, info)
        setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        patched += 1
        if isinstance(owner, type):
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is function:
                    setattr(module, key, wrapper)
                    patched += 1
    return patched


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run."""
    duration = [span[2] - span[1] for span in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += duration[i]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(duration[i] for i in by_name[name])

    def self_s(name):
        return sum(duration[i] - child_time[i] for i in by_name[name])

    def infos(name):
        return [spans[i][5] for i in by_name[name]]

    def ratio(a, b):
        return a / b if b else 0.0

    def under(i, ancestor_name):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == ancestor_name:
                return True
            parent = spans[parent][3]
        return False

    m: dict[str, float] = {}

    # warc: per-scan deciles show whether a record's cost depends on its position.
    scans = defaultdict(list)
    for i in by_name["warc.scan"]:
        scan_id, _length = spans[i][5]
        scans[scan_id].append(duration[i])
    first, last = [], []
    for steps in scans.values():
        tenth = max(1, len(steps) // 10)
        first += steps[:tenth]
        last += steps[-tenth:]
    m["warc.scan.records"] = calls("warc.scan")
    m["warc.scan.bytes"] = sum(max(info[1], 0) for info in infos("warc.scan"))
    m["warc.scan.busy_s"] = busy("warc.scan")
    m["warc.scan.us_per_record.first_decile"] = 1e6 * ratio(sum(first), len(first))
    m["warc.scan.us_per_record.last_decile"] = 1e6 * ratio(sum(last), len(last))
    m["warc.read_span.calls"] = calls("warc.read_span")
    m["warc.read_span.bytes"] = sum(infos("warc.read_span"))
    m["warc.read_span.busy_s"] = busy("warc.read_span")
    m["warc.write.records"] = calls("warc.write")
    m["warc.write.bytes"] = sum(infos("warc.write"))

    # archive
    builds = infos("archive.build_index")
    m["archive.build_index.self_s"] = self_s("archive.build_index")
    m["archive.index.bytes_per_capture"] = ratio(
        sum(size for size, _ in builds), sum(count for _, count in builds)
    )
    m["archive.open.s"] = busy("archive.open")
    m["archive.open.captures"] = sum(infos("archive.open"))
    resolved = infos("archive.resolve")
    hits = [n for n in resolved if n]
    m["archive.resolve.calls"] = len(resolved)
    m["archive.resolve.hits"] = len(hits)
    m["archive.resolve.misses"] = len(resolved) - len(hits)
    m["archive.resolve.snapshots_per_hit"] = ratio(sum(hits), len(hits))
    m["archive.resolve.busy_s"] = busy("archive.resolve")
    fetched = [info for info in infos("archive.fetch") if isinstance(info, str)]
    unique_snapshots = len(set(fetched))
    m["archive.fetch.calls"] = calls("archive.fetch")
    m["archive.fetch.self_s"] = self_s("archive.fetch")
    m["archive.fetch.per_unique_snapshot"] = ratio(len(fetched), unique_snapshots)
    written = infos("archive.write_collection")
    m["archive.write_collection.self_s"] = self_s("archive.write_collection")
    m["archive.write_collection.records"] = sum(r for r, _ in written)
    m["archive.write_collection.edges"] = sum(e for _, e in written)

    # htmlscan
    m["htmlscan.scan.calls"] = calls("htmlscan.scan")
    m["htmlscan.scan.html_bytes"] = sum(infos("htmlscan.scan"))
    m["htmlscan.scan.busy_s"] = busy("htmlscan.scan")
    m["htmlscan.scan.per_unique_snapshot"] = ratio(calls("htmlscan.scan"), unique_snapshots)
    outlinks = infos("htmlscan.outlinks")
    m["htmlscan.outlinks.calls"] = len(outlinks)
    m["htmlscan.outlinks.hrefs"] = sum(h for h, _ in outlinks)
    m["htmlscan.outlinks.links"] = sum(n for _, n in outlinks)
    m["htmlscan.outlinks.self_s"] = self_s("htmlscan.outlinks")

    # urlnorm
    m["urlnorm.canonicalize.calls"] = calls("urlnorm.canonicalize")
    m["urlnorm.canonicalize.errors"] = sum(
        1 for info in infos("urlnorm.canonicalize") if isinstance(info, dict)
    )
    m["urlnorm.canonicalize.busy_s"] = busy("urlnorm.canonicalize")
    m["urlnorm.canonicalize.per_fetch"] = ratio(calls("urlnorm.canonicalize"), len(fetched))

    # text
    m["text.tokens.calls"] = calls("text.tokens")
    m["text.tokens.tokens"] = sum(infos("text.tokens"))
    m["text.tokens.busy_s"] = busy("text.tokens")
    m["text.vectorize.calls"] = calls("text.vectorize")
    m["text.vectorize.terms"] = sum(infos("text.vectorize"))
    m["text.vectorize.self_s"] = self_s("text.vectorize")
    m["text.reference.s"] = busy("text.reference")

    # relevance
    m["relevance.topical.calls"] = calls("relevance.topical")
    m["relevance.topical.busy_s"] = busy("relevance.topical")
    m["relevance.doc_time.calls"] = calls("relevance.doc_time")
    m["relevance.doc_time.busy_s"] = busy("relevance.doc_time")
    sources = infos("relevance.doc_time")
    for source in TIME_SOURCES:
        m[f"relevance.doc_time.source.{source}"] = sources.count(source)
    m["relevance.temporal.calls"] = calls("relevance.temporal")

    # crawler
    crawls = infos("crawler.run")
    m["crawler.run.self_s"] = self_s("crawler.run")
    m["crawler.pops"] = sum(f + n + s for _, f, n, s in crawls)
    m["crawler.fetches"] = sum(f for _, f, _, _ in crawls)
    m["crawler.misses"] = sum(n for _, _, n, _ in crawls)
    m["crawler.skips"] = sum(s for _, _, _, s in crawls)
    m["crawler.frontier.push.calls"] = calls("crawler.frontier.push")
    m["crawler.frontier.pop.calls"] = calls("crawler.frontier.pop")
    m["crawler.frontier.busy_s"] = busy("crawler.frontier.push") + busy("crawler.frontier.pop")
    m["crawler.frontier.peak_len"] = max(infos("crawler.frontier.push"), default=0)
    m["crawler.select.calls"] = calls("crawler.select")
    m["crawler.select.busy_s"] = busy("crawler.select")

    # evalharness: a strategy's time is its crawl inside the comparison.
    for strategy in STRATEGIES:
        m[f"evalharness.strategy_s.{strategy}"] = sum(
            duration[i]
            for i in by_name["crawler.run"]
            if spans[i][5][0] == strategy and under(i, "evalharness.compare")
        )
    in_eval = [
        spans[i][5]
        for i in by_name["archive.fetch"]
        if isinstance(spans[i][5], str) and under(i, "evalharness.compare")
    ]
    m["evalharness.repeat_share"] = 1.0 - ratio(len(set(in_eval)), len(in_eval)) if in_eval else 0.0

    # timeutil
    for name in ("parse_iso8601", "parse_ts14"):
        m[f"timeutil.{name}.calls"] = calls(f"timeutil.{name}")
        m[f"timeutil.{name}.busy_s"] = busy(f"timeutil.{name}")
    return m


def merged_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over several traced cycles."""
    return {name: statistics.median(run[name] for run in per_run) for name in per_run[0]}
