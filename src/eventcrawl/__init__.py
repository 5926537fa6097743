"""Event-centric collection extraction from WARC web archives.

A focused crawler that walks the link graph stored in a web archive,
prioritizing URLs by combined topical and temporal relevance to a
user-defined collection specification, and materializes the matching
snapshots as an interlinked collection.
"""

from .archive import (
    ArchiveIndex,
    ArchivedDocument,
    IndexSummary,
    SnapshotRecord,
    build_index,
    fetch_document,
    write_collection,
)
from .crawler import (
    CrawlResult,
    CrawlStrategy,
    Frontier,
    extract_outlinks,
    run_crawl,
    select_snapshot,
)
from .evalharness import (
    EvalReport,
    GroundTruth,
    SyntheticArchiveConfig,
    compare_variants,
    generate_archive,
    run_comparison,
)
from .relevance import (
    DocumentTime,
    RelevanceScore,
    TimeSource,
    combined_relevance,
    extract_document_time,
    temporal_relevance,
    topical_relevance,
)
from .spec import (
    CollectionSpecification,
    Diagnostic,
    ReferenceDocument,
    SpecParseError,
    SpecValidationError,
    TemporalScope,
    TopicalScope,
    parse_spec,
    parse_spec_file,
    serialize_spec,
    validate_spec,
)
from .text import (
    IdfDictionary,
    KeywordBoost,
    TermVector,
    analyze,
    build_idf_dictionary,
    build_reference_vector,
    load_idf_dictionary,
    save_idf_dictionary,
    vectorize,
)
from .urlnorm import CanonicalizationError, canonicalize_url

__version__ = "0.1.0"
