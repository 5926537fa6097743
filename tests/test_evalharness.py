import pytest

from eventcrawl.archive import ArchiveIndex, build_index
from eventcrawl.crawler import CrawlStrategy
from eventcrawl.evalharness import (
    EvalReport,
    StrategyRun,
    SyntheticArchiveConfig,
    compare_variants,
    generate_archive,
    run_comparison,
    spec_for_ground_truth,
)


def config_for(scope, **overrides):
    base = dict(
        page_count=200,
        relevant_fraction=0.1,
        topical_locality=0.8,
        event_scope=scope,
        capture_time_spread=180 * 86400.0,
        random_seed=11,
    )
    base.update(overrides)
    return SyntheticArchiveConfig(**base)


class TestGenerateArchive:
    def test_determinism_byte_identical(self, tmp_path, event_scope):
        config = config_for(event_scope, omit_fraction=0.05)
        paths_a, _ = generate_archive(config, tmp_path / "a")
        paths_b, _ = generate_archive(config, tmp_path / "b")
        assert paths_a[0].read_bytes() == paths_b[0].read_bytes()
        assert (tmp_path / "a/ground_truth.csv").read_bytes() == (
            tmp_path / "b/ground_truth.csv"
        ).read_bytes()

    def test_different_seed_differs(self, tmp_path, event_scope):
        paths_a, _ = generate_archive(config_for(event_scope), tmp_path / "a")
        paths_b, _ = generate_archive(
            config_for(event_scope, random_seed=12), tmp_path / "b"
        )
        assert paths_a[0].read_bytes() != paths_b[0].read_bytes()

    def test_exact_relevant_count(self, tmp_path, event_scope):
        config = config_for(event_scope, page_count=1000)
        _, truth = generate_archive(config, tmp_path)
        assert len(truth.urls_with_label("relevant")) == 100

    def test_omitted_fraction_recorded(self, tmp_path, event_scope):
        config = config_for(event_scope, omit_fraction=0.05)
        paths, truth = generate_archive(config, tmp_path)
        assert len(truth.omitted) == 10  # 5% of 200
        build_index(paths, tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        for url in truth.omitted:
            assert index.resolve_snapshots(url) == []

    def test_archive_indexes_to_page_count_plus_hub(self, tmp_path, event_scope):
        config = config_for(event_scope)
        paths, truth = generate_archive(config, tmp_path)
        summary = build_index(paths, tmp_path / "index.cdx")
        assert summary.record_count == config.page_count + 1
        assert summary.skipped == 0

    def test_relevant_capture_times_inside_event(self, tmp_path, event_scope):
        _, truth = generate_archive(config_for(event_scope), tmp_path)
        start = event_scope.event_start.strftime("%Y%m%d%H%M%S")
        end = event_scope.event_end.strftime("%Y%m%d%H%M%S")
        for url in truth.urls_with_label("relevant"):
            assert start <= truth.capture_times[url] <= end

    def test_decoy_cluster_never_contains_separator(self, tmp_path, event_scope):
        config = config_for(
            event_scope, decoy_fraction=0.1, separator_keyword="krizzle"
        )
        paths, truth = generate_archive(config, tmp_path)
        build_index(paths, tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        from eventcrawl.archive import fetch_document
        from eventcrawl.text import analyze

        def tokens_of(url):
            doc = fetch_document(index, index.resolve_snapshots(url)[0])
            return set(analyze(doc.scanned().text, "none"))

        for url in sorted(truth.urls_with_label("decoy"))[:10]:
            assert "krizzle" not in tokens_of(url)
        for url in sorted(truth.urls_with_label("relevant"))[:10]:
            assert "krizzle" in tokens_of(url)


@pytest.fixture
def small_comparison(tmp_path, event_scope):
    config = config_for(event_scope, omit_fraction=0.03)
    paths, truth = generate_archive(config, tmp_path)
    build_index(paths, tmp_path / "index.cdx")
    index = ArchiveIndex.open(tmp_path / "index.cdx")
    spec = spec_for_ground_truth(truth, event_scope, target_size=100)
    return spec, index, truth


class TestRunComparison:
    def test_series_shape_and_monotonicity(self, small_comparison):
        spec, index, _ = small_comparison
        report = run_comparison(
            spec, index, [CrawlStrategy.UNFOCUSED, CrawlStrategy.COMBINED], 10
        )
        assert len(report.runs) == 2
        for run in report.runs:
            assert run.error is None
            downloads = [d for d, _ in run.checkpoints]
            values = [v for _, v in run.checkpoints]
            assert downloads == sorted(downloads)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
            assert values[-1] <= run.fetched  # topical scores are <= 1
            assert run.checkpoints[0][0] == 10

    def test_checkpoint_count_matches_budget(self, small_comparison):
        spec, index, _ = small_comparison
        report = run_comparison(spec, index, [CrawlStrategy.COMBINED], 10)
        run = report.runs[0]
        assert run.fetched == 100
        assert len(run.checkpoints) == 10

    def test_single_strategy_report(self, small_comparison):
        spec, index, _ = small_comparison
        report = run_comparison(spec, index, [CrawlStrategy.TIME_FOCUSED], 25)
        assert [r.strategy for r in report.runs] == [CrawlStrategy.TIME_FOCUSED]

    def test_urls_considered_accounting(self, small_comparison):
        spec, index, _ = small_comparison
        report = run_comparison(spec, index, [CrawlStrategy.COMBINED], 10)
        run = report.runs[0]
        assert run.urls_considered == run.fetched + run.missing + run.queued_at_end

    def test_failing_strategy_isolated(self, small_comparison, monkeypatch):
        spec, index, _ = small_comparison
        import eventcrawl.evalharness as harness

        real = harness.run_crawl

        def flaky(spec_, index_, strategy, **kwargs):
            if strategy is CrawlStrategy.TIME_FOCUSED:
                raise RuntimeError("boom")
            return real(spec_, index_, strategy, **kwargs)

        monkeypatch.setattr(harness, "run_crawl", flaky)
        report = run_comparison(
            spec, index, [CrawlStrategy.TIME_FOCUSED, CrawlStrategy.COMBINED], 10
        )
        assert report.runs[0].error == "boom"
        assert report.runs[1].error is None and report.runs[1].fetched == 100

    def test_strategies_fetch_each_snapshot_once(self, small_comparison, monkeypatch):
        import eventcrawl.crawler as crawler

        spec, index, _ = small_comparison
        fetched = []
        real_fetch = crawler.fetch_document

        def counting_fetch(index_, snapshot):
            fetched.append(snapshot)
            return real_fetch(index_, snapshot)

        monkeypatch.setattr(crawler, "fetch_document", counting_fetch)
        report = run_comparison(spec, index, list(CrawlStrategy), 10)
        assert all(run.error is None for run in report.runs)
        assert len(fetched) == len(set(fetched)) > max(run.fetched for run in report.runs)

    def test_zero_checkpoint_rejected(self, small_comparison):
        spec, index, _ = small_comparison
        with pytest.raises(ValueError, match="positive"):
            run_comparison(spec, index, [CrawlStrategy.COMBINED], 0)


class TestUnfocusedSanityBand:
    def test_per_document_relevance_tracks_relevant_fraction(self, tmp_path, event_scope):
        # In a locality-free graph (link probability equal to the base
        # rate) the unfocused crawl's per-document relevance should sit
        # near relevant_fraction x mean relevant-page score.
        from eventcrawl.relevance import topical_relevance
        from eventcrawl.text import build_reference_vector, default_idf_dictionary, get_analyzer, vectorize
        from eventcrawl.archive import fetch_document
        from eventcrawl.crawler import run_crawl

        per_doc, expected = [], []
        for seed in range(5):
            config = config_for(
                event_scope,
                page_count=600,
                relevant_fraction=0.1,
                topical_locality=0.1,
                random_seed=300 + seed,
            )
            out = tmp_path / f"s{seed}"
            paths, truth = generate_archive(config, out)
            build_index(paths, out / "index.cdx")
            index = ArchiveIndex.open(out / "index.cdx")
            spec = spec_for_ground_truth(truth, event_scope, target_size=300)
            result = run_crawl(spec, index, CrawlStrategy.UNFOCUSED)
            per_doc.append(result.accumulated_topical() / len(result.collection))

            idf = default_idf_dictionary()
            reference = build_reference_vector(spec.topical, idf)
            analyzer = get_analyzer("none")
            scores = []
            for url in sorted(truth.urls_with_label("relevant"))[:30]:
                doc = fetch_document(index, index.resolve_snapshots(url)[0])
                vector = vectorize(analyzer.tokens(doc.scanned().text), idf)
                scores.append(topical_relevance(vector, reference))
            expected.append(config.relevant_fraction * (sum(scores) / len(scores)))

        mean_per_doc = sum(per_doc) / len(per_doc)
        mean_expected = sum(expected) / len(expected)
        assert 0.5 * mean_expected <= mean_per_doc <= 1.5 * mean_expected


def report_with(final: float, budget: int = 100) -> EvalReport:
    run = StrategyRun(strategy=CrawlStrategy.COMBINED, checkpoints=[(budget, final)])
    return EvalReport(budget=budget, checkpoint_interval=10, runs=[run])


class TestCompareVariants:
    def test_identical_reports_ratio_one(self):
        assert compare_variants(report_with(12.5), report_with(12.5)) == {"ct-f": 1.0}

    def test_zero_base_is_undefined(self):
        with pytest.raises(ValueError, match="undefined ratio"):
            compare_variants(report_with(0.0), report_with(3.0))

    def test_mismatched_budgets_rejected(self):
        with pytest.raises(ValueError, match="mismatched budgets"):
            compare_variants(report_with(1.0, budget=100), report_with(1.0, budget=200))

    def test_ratio_value(self):
        ratios = compare_variants(report_with(10.0), report_with(15.0))
        assert ratios["ct-f"] == pytest.approx(1.5)


class TestKeywordAblation:
    def test_matches_brute_force_rescoring(self, tmp_path, event_scope):
        from eventcrawl.archive import fetch_document
        from eventcrawl.crawler import run_crawl
        from eventcrawl.relevance import topical_relevance
        from eventcrawl.text import (
            build_reference_vector,
            default_idf_dictionary,
            get_analyzer,
            vectorize,
        )

        config = config_for(
            event_scope, decoy_fraction=0.2, separator_keyword="krizzle", omit_fraction=0.03
        )
        paths, truth = generate_archive(config, tmp_path)
        build_index(paths, tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        base = spec_for_ground_truth(truth, event_scope, target_size=60)
        with_kw = spec_for_ground_truth(truth, event_scope, target_size=60, use_keyword=True)
        strategies = list(CrawlStrategy)
        report = run_comparison(base, index, strategies, 7, evaluation_spec=with_kw)

        idf = default_idf_dictionary()
        reference = build_reference_vector(with_kw.topical, idf)
        analyzer = get_analyzer(with_kw.topical.language)
        for strategy, run in zip(strategies, report.runs):
            checkpoints, accumulated = [], 0.0
            collection = run_crawl(base, index, strategy).collection
            for position, item in enumerate(collection, start=1):
                document = fetch_document(index, item.snapshot)
                vector = vectorize(analyzer.tokens(document.scanned().text), idf)
                accumulated += topical_relevance(vector, reference)
                if position % 7 == 0 or position == len(collection):
                    checkpoints.append((position, accumulated))
            assert run.error is None
            assert run.checkpoints == checkpoints

    def test_measure_scores_only_topical_relevance(self, tmp_path, event_scope, monkeypatch):
        from eventcrawl import crawler

        config = config_for(event_scope, decoy_fraction=0.2, separator_keyword="krizzle")
        paths, truth = generate_archive(config, tmp_path)
        build_index(paths, tmp_path / "index.cdx")
        index = ArchiveIndex.open(tmp_path / "index.cdx")
        base = spec_for_ground_truth(truth, event_scope, target_size=40)
        with_kw = spec_for_ground_truth(truth, event_scope, target_size=40, use_keyword=True)
        calls = {"outlinks": 0, "doc_time": 0}

        def counting(name, function):
            def counted(*args):
                calls[name] += 1
                return function(*args)

            return counted

        monkeypatch.setattr(crawler, "extract_outlinks", counting("outlinks", crawler.extract_outlinks))
        monkeypatch.setattr(
            crawler, "extract_document_time", counting("doc_time", crawler.extract_document_time)
        )
        strategies = list(CrawlStrategy)
        run_comparison(base, index, strategies, 7)
        unmeasured = dict(calls)
        calls.update(outlinks=0, doc_time=0)
        report = run_comparison(base, index, strategies, 7, evaluation_spec=with_kw)
        assert all(run.error is None for run in report.runs)
        # The crawl analysis extracts each snapshot's links and time once; the measure never does.
        assert calls == unmeasured
        assert unmeasured["outlinks"] == unmeasured["doc_time"] > 0
