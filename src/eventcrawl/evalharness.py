"""Evaluation harness: synthetic archives and strategy comparisons.

The generator plants a cluster of event-relevant pages (on-topic text,
capture times inside the event interval, links biased toward the
cluster) inside a larger background graph, optionally with a decoy
cluster that shares the relevant vocabulary but never the separator
keyword, and with a fraction of link targets deliberately absent from
the archive. Everything is driven by one RNG seed: identical configs
produce byte-identical archives.
"""

from __future__ import annotations

import logging
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import accumulate
from pathlib import Path
from random import Random

from .archive import ArchiveIndex, SnapshotRecord, fetch_document
from .archive import open_replacing, replacing, write_csv
from .crawler import CrawlStrategy, SnapshotAnalysis, TopicalScorer, run_crawl
from .spec import (
    CollectionSpecification,
    ReferenceDocument,
    TemporalScope,
    TopicalScope,
)
from .text import IdfDictionary
from .timeutil import format_iso, format_ts14, parse_ts14
from .warc import WarcWriter

__all__ = [
    "EvalReport",
    "GroundTruth",
    "StrategyRun",
    "SyntheticArchiveConfig",
    "compare_variants",
    "generate_archive",
    "run_comparison",
    "spec_for_ground_truth",
    "write_report_csvs",
]

logger = logging.getLogger(__name__)

LABEL_RELEVANT = "relevant"
LABEL_DECOY = "decoy"
LABEL_BACKGROUND = "background"
LABEL_HUB = "hub"
LABEL_OMITTED = "omitted"


@dataclass(frozen=True)
class SyntheticArchiveConfig:
    """Knobs for one synthetic archive; every byte derives from random_seed."""

    page_count: int
    relevant_fraction: float
    topical_locality: float
    event_scope: TemporalScope
    capture_time_spread: float  # seconds around the event for background times
    random_seed: int
    out_degree: int = 12
    page_word_count: int = 120
    seed_fanout: int = 24
    omit_fraction: float = 0.0
    decoy_fraction: float = 0.0
    separator_keyword: str | None = None
    separator_rate: float = 0.08  # share of separator words on relevant pages
    reference_separator_rate: float = 0.05  # share in the reference text
    host: str = "archive.test"

    def __post_init__(self) -> None:
        if self.page_count < 10:
            raise ValueError("page_count must be >= 10")
        if not 0.0 < self.relevant_fraction < 1.0:
            raise ValueError("relevant_fraction must be in (0, 1)")
        if not 0.0 <= self.topical_locality <= 1.0:
            raise ValueError("topical_locality must be in [0, 1]")
        if self.relevant_fraction + self.decoy_fraction >= 1.0:
            raise ValueError("relevant + decoy fractions must leave room for background")


@dataclass(frozen=True)
class GroundTruth:
    """What the generator planted, for oracle-style assertions."""

    labels: dict[str, str]  # url -> relevant|decoy|background|hub
    omitted: frozenset[str]
    capture_times: dict[str, str]  # url -> 14-digit timestamp
    seeds: tuple[str, ...]
    reference_text: str
    separator_keyword: str | None

    def urls_with_label(self, label: str) -> set[str]:
        return {url for url, got in self.labels.items() if got == label}


def generate_archive(
    config: SyntheticArchiveConfig, out_dir: str | Path
) -> tuple[list[Path], GroundTruth]:
    """Write the synthetic archive and return its WARC paths + ground truth."""
    out_dir = Path(out_dir)
    rng = Random(config.random_seed)

    sample_relevant = _zipf_sampler([f"aquil{i}on" for i in range(60)])
    sample_background = _zipf_sampler([f"breva{i}um" for i in range(2000)])

    n_relevant = round(config.page_count * config.relevant_fraction)
    n_decoy = round(config.page_count * config.decoy_fraction)

    urls = [f"http://{config.host}/p/{i:05d}" for i in range(config.page_count)]
    labels = {}
    for i, url in enumerate(urls):
        if i < n_relevant:
            labels[url] = LABEL_RELEVANT
        elif i < n_relevant + n_decoy:
            labels[url] = LABEL_DECOY
        else:
            labels[url] = LABEL_BACKGROUND
    relevant_urls = urls[:n_relevant]
    decoy_urls = urls[n_relevant : n_relevant + n_decoy]
    hub_url = f"http://{config.host}/hub"
    labels[hub_url] = LABEL_HUB

    n_missing = max(1, round(config.page_count * config.omit_fraction)) if config.omit_fraction > 0 else 0
    missing_urls = [f"http://{config.host}/gone/{i:04d}" for i in range(n_missing)]

    # Capture times: planted clusters sit inside the event interval,
    # background spreads over the surrounding window.
    start = int(config.event_scope.start_epoch)
    end = int(config.event_scope.end_epoch)
    spread = int(config.capture_time_spread)
    capture_epochs: dict[str, int] = {}
    for url in urls:
        if labels[url] in (LABEL_RELEVANT, LABEL_DECOY):
            capture_epochs[url] = rng.randint(start, end)
        else:
            capture_epochs[url] = rng.randint(start - spread, end + spread)
    capture_epochs[hub_url] = start

    link_targets = _link_targets(
        config, rng, urls, labels, relevant_urls, decoy_urls, missing_urls
    )
    link_targets[hub_url] = [
        urls[rng.randrange(len(urls))] for _ in range(config.seed_fanout)
    ]

    def page_words(url: str) -> list[str]:
        label = labels[url]
        if label in (LABEL_RELEVANT, LABEL_DECOY):
            words = sample_relevant(rng, config.page_word_count)
            if config.separator_keyword:
                # Confusable clusters: same topic vocabulary, but each
                # carries its own marker (think two editions of a
                # recurring event); only the relevant marker is the
                # user keyword.
                marker = (
                    config.separator_keyword
                    if label == LABEL_RELEVANT
                    else f"anti{config.separator_keyword}"
                )
                n_sep = max(1, round(config.page_word_count * config.separator_rate))
                for _ in range(n_sep):
                    words[rng.randrange(len(words))] = marker
            return words
        return sample_background(rng, config.page_word_count)

    warc_path = out_dir / "pages.warc.gz"
    capture_times: dict[str, str] = {}
    with replacing(warc_path) as temp_path, WarcWriter(temp_path, compress=True) as writer:
        for url in [hub_url] + urls:
            ts14 = format_ts14(datetime.fromtimestamp(capture_epochs[url], tz=timezone.utc))
            capture_times[url] = ts14
            date_iso = format_iso(parse_ts14(ts14))
            html = _render_page(
                url, date_iso, page_words(url), link_targets[url], rng, config.host
            )
            writer.write_response(
                url,
                date_iso,
                html.encode("utf-8"),
                record_id=f"urn:uuid:{uuid.uuid5(uuid.NAMESPACE_URL, url + '@' + ts14)}",
            )

    reference_words = sample_relevant(Random(config.random_seed + 1), 400)
    if config.separator_keyword:
        # The reference covers both confusable clusters with exactly
        # equal marker mass, so without the keyword it cannot tell
        # them apart.
        ref_rng = Random(config.random_seed + 2)
        n_sep = max(1, round(len(reference_words) * config.reference_separator_rate))
        positions = ref_rng.sample(range(len(reference_words)), 2 * n_sep)
        for pos in positions[:n_sep]:
            reference_words[pos] = config.separator_keyword
        for pos in positions[n_sep:]:
            reference_words[pos] = f"anti{config.separator_keyword}"
    reference_text = " ".join(reference_words)

    truth = GroundTruth(
        labels=labels,
        omitted=frozenset(missing_urls),
        capture_times=capture_times,
        seeds=(hub_url,),
        reference_text=reference_text,
        separator_keyword=config.separator_keyword,
    )
    rows = [[url, labels[url], capture_times.get(url, "")] for url in sorted(labels)]
    rows.extend([url, LABEL_OMITTED, ""] for url in sorted(missing_urls))
    write_csv(out_dir / "ground_truth.csv", ["url", "label", "capture_time"], rows)
    with open_replacing(out_dir / "reference.txt") as handle:
        handle.write(reference_text + "\n")
    return [warc_path], truth


def _link_targets(
    config: SyntheticArchiveConfig,
    rng: Random,
    urls: list[str],
    labels: dict[str, str],
    relevant_urls: list[str],
    decoy_urls: list[str],
    missing_urls: list[str],
) -> dict[str, list[str]]:
    non_relevant = [u for u in urls if labels[u] != LABEL_RELEVANT]
    non_decoy = [u for u in urls if labels[u] != LABEL_DECOY]
    targets: dict[str, list[str]] = {}
    for url in urls:
        label = labels[url]
        page_links: list[str] = []
        for _ in range(config.out_degree):
            if missing_urls and rng.random() < config.omit_fraction:
                page_links.append(missing_urls[rng.randrange(len(missing_urls))])
                continue
            if label == LABEL_RELEVANT:
                pool = relevant_urls if rng.random() < config.topical_locality else non_relevant
            elif label == LABEL_DECOY:
                pool = decoy_urls if rng.random() < config.topical_locality else non_decoy
            else:
                pool = urls
            target = pool[rng.randrange(len(pool))]
            for _attempt in range(16):  # avoid self-links
                if target != url:
                    break
                target = pool[rng.randrange(len(pool))]
            if target != url:
                page_links.append(target)
        targets[url] = page_links
    return targets


def _zipf_sampler(pool: list[str]):
    """Return ``sample(rng, count)``, drawing from ``pool`` with weight ``1/(rank+1)``.

    The cumulative weights are built once per pool. ``Random.choices``
    accumulates ``weights=`` into this same list, so ``cum_weights=``
    draws the same words.
    """
    cum_weights = list(accumulate(1.0 / (rank + 1) for rank in range(len(pool))))
    return lambda rng, count: rng.choices(pool, cum_weights=cum_weights, k=count)


def _render_page(
    url: str, date_iso: str, words: list[str], links: list[str], rng: Random, host: str
) -> str:
    tail = url.rsplit("/", 1)[-1]
    prefix = f"http://{host}"
    items = []
    for target in links:
        href = target[len(prefix) :] if target.startswith(prefix) else target
        anchor = words[rng.randrange(len(words))] if words else "more"
        items.append(f'<li><a href="{href}">{anchor}</a></li>')
    body = " ".join(words)
    return (
        "<html><head><meta charset=\"utf-8\">\n"
        f'<meta property="article:published_time" content="{date_iso}">\n'
        f"<title>{tail}</title></head>\n"
        f"<body><p>{body}</p>\n<ul>{''.join(items)}</ul></body></html>\n"
    )


def spec_for_ground_truth(
    truth: GroundTruth,
    scope: TemporalScope,
    *,
    target_size: int = 1000,
    use_keyword: bool = False,
) -> CollectionSpecification:
    """Build the collection spec matching a generated archive."""
    keywords: tuple[str, ...] = ()
    if use_keyword:
        if not truth.separator_keyword:
            raise ValueError("ground truth has no separator keyword")
        keywords = (truth.separator_keyword,)
    topical = TopicalScope(
        reference_documents=(ReferenceDocument("inline", truth.reference_text),),
        keywords=keywords,
        language="none",
    )
    return CollectionSpecification(
        name="synthetic-event",
        topical=topical,
        temporal=scope,
        seeds=truth.seeds,
        target_size=target_size,
    )


@dataclass
class StrategyRun:
    """One strategy's crawl outcome within a comparison."""

    strategy: CrawlStrategy
    checkpoints: list[tuple[int, float]] = field(default_factory=list)
    fetched: int = 0
    missing: int = 0
    queued_at_end: int = 0
    error: str | None = None

    @property
    def urls_considered(self) -> int:
        return self.fetched + self.missing + self.queued_at_end

    @property
    def final_accumulated(self) -> float:
        return self.checkpoints[-1][1] if self.checkpoints else 0.0


@dataclass
class EvalReport:
    budget: int
    checkpoint_interval: int
    runs: list[StrategyRun]

    def run_for(self, strategy: CrawlStrategy) -> StrategyRun | None:
        return next((run for run in self.runs if run.strategy is strategy), None)


def run_comparison(
    spec: CollectionSpecification,
    index: ArchiveIndex,
    strategies: list[CrawlStrategy],
    checkpoint_interval: int,
    *,
    idf: IdfDictionary | None = None,
    evaluation_spec: CollectionSpecification | None = None,
) -> EvalReport:
    """Crawl once per strategy under identical spec and budget.

    Accumulated relevance at each checkpoint is the running sum of the
    fetched documents' own topical scores, so the measure is comparable
    across strategies. When reports from different crawl specs are to be
    compared (e.g. a keyword ablation), pass the common ``evaluation_spec``
    whose topical scope defines the measuring stick; by default each run
    is measured with its own spec. A failing strategy is isolated: its
    run records the error and the others still execute. The strategies
    share one :class:`SnapshotAnalysis`, so each snapshot is scored once;
    an ``evaluation_spec`` measure scores each snapshot's topical
    relevance once more, and nothing else.
    """
    if checkpoint_interval < 1:
        raise ValueError("checkpoint interval must be positive")
    measure = None
    measured: dict[SnapshotRecord, float] = {}
    if evaluation_spec is not None and evaluation_spec.topical != spec.topical:
        measure = TopicalScorer(evaluation_spec.topical, index, idf)
    analysis = None
    runs: list[StrategyRun] = []
    for strategy in strategies:
        run = StrategyRun(strategy=strategy)
        try:
            # Built inside the loop so that a reference that fails to
            # resolve is recorded on every strategy, as a crawl error.
            if analysis is None:
                analysis = SnapshotAnalysis(spec, index, idf=idf)
            result = run_crawl(spec, index, strategy, analysis=analysis)
        except Exception as exc:  # isolate per-strategy failures
            logger.error("strategy %s failed: %s", strategy.value, exc)
            run.error = str(exc)
            runs.append(run)
            continue
        accumulated = 0.0
        for position, item in enumerate(result.collection, start=1):
            if measure is None:
                accumulated += item.score.topical
            else:
                if item.snapshot not in measured:
                    measured[item.snapshot] = measure(fetch_document(index, item.snapshot))
                accumulated += measured[item.snapshot]
            if position % checkpoint_interval == 0:
                run.checkpoints.append((position, accumulated))
        total = len(result.collection)
        if total and (not run.checkpoints or run.checkpoints[-1][0] != total):
            run.checkpoints.append((total, accumulated))
        run.fetched = total
        run.missing = len(result.missing)
        run.queued_at_end = result.queued_at_end
        runs.append(run)
    return EvalReport(budget=spec.target_size, checkpoint_interval=checkpoint_interval, runs=runs)


def compare_variants(
    base_report: EvalReport, variant_report: EvalReport
) -> dict[str, float]:
    """Final-accumulated-relevance improvement ratios, per strategy."""
    if base_report.budget != variant_report.budget:
        raise ValueError(
            f"mismatched budgets: {base_report.budget} vs {variant_report.budget}"
        )
    ratios: dict[str, float] = {}
    for base_run in base_report.runs:
        variant_run = variant_report.run_for(base_run.strategy)
        if variant_run is None or base_run.error or variant_run.error:
            continue
        if base_run.final_accumulated == 0.0:
            raise ValueError(
                f"undefined ratio: zero base accumulated relevance for {base_run.strategy.value}"
            )
        ratios[base_run.strategy.value] = (
            variant_run.final_accumulated / base_run.final_accumulated
        )
    return ratios


def write_report_csvs(report: EvalReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Emit the series and summary CSVs for a comparison report."""
    out_dir = Path(out_dir)
    series_path = out_dir / "accumulated_relevance.csv"
    summary_path = out_dir / "summary.csv"
    series = [
        [run.strategy.value, downloaded, repr(accumulated)]
        for run in report.runs
        for downloaded, accumulated in run.checkpoints
    ]
    write_csv(series_path, ["strategy", "documents_downloaded", "accumulated_relevance"], series)
    summary = [
        [run.strategy.value, run.urls_considered, run.fetched, run.missing, run.queued_at_end]
        for run in report.runs
    ]
    header = ["strategy", "urls_considered", "fetched", "missing", "queued_at_end"]
    write_csv(summary_path, header, summary)
    return series_path, summary_path
