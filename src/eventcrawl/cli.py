"""Command-line interface.

Subcommands: ``index`` (build the URL lookup index from WARC files),
``crawl`` (run one focused extraction), ``eval`` (compare strategies),
``validate`` (check a spec file), ``gen`` (create a synthetic archive).

Exit codes: 0 success, 1 validation failure, 2 usage error, a bad value
or a file that cannot be read or written, 3 an ``eval`` whose reference
documents cannot be resolved (each strategy's line reports the error and
nothing is written). Any other error ends a command, ``eval`` as
``crawl``, with one line on stderr, never a traceback. All outputs are
deterministic given identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

# fetch_document is unused here; bench/tracing.py checks that this module binds it.
from .archive import ArchiveIndex, build_index, fetch_document, write_collection  # noqa: F401
from .archive import open_replacing, write_csv
from .crawler import CrawlStrategy, SnapshotAnalysis, run_crawl, write_trace
from .evalharness import (
    GroundTruth,
    SyntheticArchiveConfig,
    generate_archive,
    run_comparison,
    spec_for_ground_truth,
    write_report_csvs,
)
from .spec import (
    SpecParseError,
    SpecValidationError,
    TemporalScope,
    parse_spec_file,
    serialize_spec,
    validate_spec,
)
from .text import load_idf_dictionary
from .timeutil import parse_duration, parse_iso8601

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3


class _Exit(Exception):
    """Ends a command: ``main`` prints the message to stderr and returns ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.handler(args)
    except BrokenPipeError:  # downstream closed the pipe; not our error
        return EXIT_OK
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventcrawl",
        description="Extract event-centric document collections from WARC archives.",
    )
    # The inputs of a crawl or eval, which _load_inputs reads.
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--spec", required=True, help="collection spec JSON file")
    inputs.add_argument("--index", required=True, help="index file")
    inputs.add_argument("--out", required=True, help="output directory")
    inputs.add_argument("--idf", help="IDF dictionary file (default: bundled)")
    inputs.add_argument(
        "--half-life-gamma",
        action="store_true",
        help="treat lead/cool-down as the half-life of the decay instead of 1/e",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build the snapshot index")
    p_index.add_argument("--warc-dir", required=True, help="directory of WARC files")
    p_index.add_argument("--index", required=True, help="index file to write")
    p_index.set_defaults(handler=cmd_index)

    p_crawl = sub.add_parser("crawl", parents=[inputs], help="run a focused extraction")
    p_crawl.add_argument("--strategy", default="ct-f", help="unfocused | c-f | t-f | ct-f")
    p_crawl.set_defaults(handler=cmd_crawl)

    p_eval = sub.add_parser("eval", parents=[inputs], help="compare crawl strategies")
    p_eval.add_argument(
        "--strategy",
        default="all",
        help="comma-separated strategies, or 'all' (default)",
    )
    p_eval.add_argument("--checkpoint", type=int, default=100, help="checkpoint interval")
    p_eval.set_defaults(handler=cmd_eval)

    p_validate = sub.add_parser("validate", help="validate a spec file")
    p_validate.add_argument("--spec", required=True, help="collection spec JSON file")
    p_validate.set_defaults(handler=cmd_validate)

    p_gen = sub.add_parser("gen", help="generate a synthetic archive")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=0, help="random seed")
    p_gen.add_argument("--pages", type=int, default=1000, help="number of pages")
    p_gen.add_argument(
        "--relevant-fraction", type=float, default=0.1, help="share of event-relevant pages"
    )
    p_gen.add_argument(
        "--locality",
        type=float,
        default=0.8,
        help="chance that a cluster page links within its cluster",
    )
    p_gen.add_argument(
        "--omit-fraction",
        type=float,
        default=0.0,
        help="share of linked pages left out of the archive",
    )
    p_gen.add_argument(
        "--decoy-fraction",
        type=float,
        default=0.0,
        help="share of decoy pages without the separator keyword",
    )
    p_gen.add_argument("--keyword", help="separator keyword for the decoy setup")
    p_gen.add_argument("--event-start", default="2011-03-01", help="event start (ISO-8601)")
    p_gen.add_argument("--event-end", default="2011-03-14", help="event end (ISO-8601)")
    p_gen.add_argument("--lead", default="2w", help="lead time (e.g. 2w)")
    p_gen.add_argument("--cool-down", default="4w", help="cool-down time (e.g. 4w)")
    p_gen.add_argument("--spread", default="180d", help="background capture-time spread")
    p_gen.add_argument(
        "--target-size", type=int, default=1000, help="target_size of the written spec"
    )
    p_gen.set_defaults(handler=cmd_gen)

    return parser


def cmd_index(args: argparse.Namespace) -> int:
    warc_dir = Path(args.warc_dir)
    if not warc_dir.is_dir():
        raise _Exit(EXIT_USAGE, f"error: not a directory: {warc_dir}")
    warc_paths = sorted(p for p in warc_dir.iterdir() if p.suffix in (".warc", ".gz"))
    if not warc_paths:
        print(f"warning: no WARC files found in {warc_dir}", file=sys.stderr)
    summary = build_index(warc_paths, args.index)
    print(
        f"indexed {summary.record_count} records for {summary.url_count} URLs "
        f"({summary.skipped} skipped) -> {args.index}"
    )
    counts = ", ".join(f"{n} {reason}" for reason, n in summary.left_out.items())
    print(f"left out {sum(summary.left_out.values())} records: {counts}")
    return EXIT_OK


def _load_inputs(args: argparse.Namespace):
    """The ``(spec, index, idf)`` of a crawl or eval."""
    try:
        spec = parse_spec_file(args.spec)
    except (SpecParseError, SpecValidationError, OSError) as exc:
        raise _Exit(EXIT_VALIDATION, f"error: invalid spec: {exc}") from exc
    if args.half_life_gamma:
        # exp(-dt / (gamma / ln 2)) is 0.5 at dt == gamma, where exp(-dt / gamma) is 1/e.
        ln2 = math.log(2.0)
        temporal = replace(
            spec.temporal,
            lead_time=spec.temporal.lead_time / ln2,
            cool_down_time=spec.temporal.cool_down_time / ln2,
        )
        spec = replace(spec, temporal=temporal)
    try:
        index = ArchiveIndex.open(args.index)
    except (OSError, ValueError) as exc:
        raise _Exit(EXIT_USAGE, f"error: cannot open index: {exc}") from exc
    try:
        idf = load_idf_dictionary(args.idf) if args.idf else None
    except (OSError, ValueError) as exc:
        raise _Exit(EXIT_USAGE, f"error: cannot load IDF dictionary: {exc}") from exc
    return spec, index, idf


def cmd_crawl(args: argparse.Namespace) -> int:
    strategy = CrawlStrategy.from_name(args.strategy)
    spec, index, idf = _load_inputs(args)
    # Resolves the reference documents, so a bad one stops the crawl before any write.
    try:
        analysis = SnapshotAnalysis(spec, index, idf=idf)
    except ValueError as exc:
        raise _Exit(EXIT_VALIDATION, f"error: invalid spec: {exc}") from exc
    result = run_crawl(spec, index, strategy, analysis=analysis)

    out_dir = Path(args.out)
    manifest = write_collection(
        ((item, item.score.combined) for item in result.collection), out_dir
    )
    write_trace(result.trace, out_dir / "trace.csv")
    accumulated = result.accumulated_topical()
    write_csv(
        out_dir / "run_summary.csv",
        ["fetched", "missing", "queued_at_end", "accumulated_relevance"],
        [[len(result.collection), len(result.missing), result.queued_at_end, repr(accumulated)]],
    )
    print(
        f"crawl [{strategy.value}] fetched {len(result.collection)} documents, "
        f"{len(result.missing)} missing, accumulated relevance {accumulated:.3f}"
    )
    print(f"collection: {manifest.warc_path}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if args.checkpoint < 1:
        raise _Exit(EXIT_USAGE, "error: checkpoint must be positive")
    strategies = (
        list(CrawlStrategy)
        if args.strategy.strip().lower() == "all"
        else [CrawlStrategy.from_name(name) for name in args.strategy.split(",")]
    )
    spec, index, idf = _load_inputs(args)
    report = run_comparison(spec, index, strategies, args.checkpoint, idf=idf)
    # An unresolvable reference fails every run before any crawl; the previous CSVs stay.
    if any(run.error for run in report.runs):
        for run in report.runs:
            print(f"{run.strategy.value}: ERROR: {run.error}")
        return EXIT_PARTIAL
    series_path, summary_path = write_report_csvs(report, args.out)
    for run in report.runs:
        print(
            f"{run.strategy.value}: accumulated {run.final_accumulated:.3f}, "
            f"{run.urls_considered} URLs considered"
        )
    print(f"series: {series_path}\nsummary: {summary_path}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        spec = parse_spec_file(args.spec)
    except (SpecParseError, SpecValidationError, OSError) as exc:
        raise _Exit(EXIT_VALIDATION, f"invalid: {exc}") from exc
    print(f"spec {spec.name!r} is valid")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    scope = TemporalScope(
        event_start=parse_iso8601(args.event_start),
        event_end=parse_iso8601(args.event_end, end_of_day=True),
        lead_time=parse_duration(args.lead),
        cool_down_time=parse_duration(args.cool_down),
    )

    def spec_for(truth: GroundTruth):
        return spec_for_ground_truth(
            truth, scope, target_size=args.target_size, use_keyword=bool(args.keyword)
        )

    # Refuse a spec that validate would refuse before anything is written. The
    # generator's seed and reference are valid, so a stand-in checks the flags.
    stand_in = GroundTruth(
        {}, frozenset(), {}, seeds=("http://archive.test/",), reference_text="text",
        separator_keyword=args.keyword,
    )
    problems = validate_spec(spec_for(stand_in))
    if problems:
        raise ValueError(str(problems[0]))
    config = SyntheticArchiveConfig(
        page_count=args.pages,
        relevant_fraction=args.relevant_fraction,
        topical_locality=args.locality,
        event_scope=scope,
        capture_time_spread=parse_duration(args.spread),
        random_seed=args.seed,
        omit_fraction=args.omit_fraction,
        decoy_fraction=args.decoy_fraction,
        separator_keyword=args.keyword,
    )
    warc_paths, truth = generate_archive(config, args.out)
    spec = spec_for(truth)
    spec_path = Path(args.out) / "spec.json"
    with open_replacing(spec_path) as handle:
        handle.write(serialize_spec(spec))
    print(f"generated {config.page_count} pages -> {warc_paths[0]}")
    print(f"ground truth: {Path(args.out) / 'ground_truth.csv'}")
    print(f"spec: {spec_path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
