"""Text analysis: tokenization, term vectors, and the topical reference.

Documents and the topical scope are represented as weighted term
vectors over stemmed, stop-word-filtered unigrams and bigrams (a bigram
is two tokens joined by a single space). Term weights are raw term
frequency times IDF; user keywords shift the reference vector by
multiplying matching term weights.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping

from .archive import ArchiveIndex, fetch_document, open_replacing
from .spec import TopicalScope
from .stem import STEMMERS

__all__ = [
    "Analyzer",
    "IdfDictionary",
    "KeywordBoost",
    "TermVector",
    "analyze",
    "build_idf_dictionary",
    "build_reference_vector",
    "default_idf_dictionary",
    "get_analyzer",
    "load_idf_dictionary",
    "save_idf_dictionary",
    "vectorize",
]

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def _load_stopwords(language: str) -> frozenset[str]:
    if language == "none":
        return frozenset()
    ref = resources.files("eventcrawl").joinpath(f"data/stopwords/{language}.txt")
    words = set()
    for line in ref.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


class Analyzer:
    """Lowercase, drop stop words, stem. Deterministic and reusable."""

    def __init__(self, language: str):
        stemmer = STEMMERS.get(language)
        if stemmer is None:
            raise ValueError(f"unknown language: {language!r}")
        self._stopwords = _load_stopwords(language)
        self._stem = stemmer
        self._cache: dict[str, str] = {}

    def tokens(self, text: str) -> list[str]:
        out = []
        cache = self._cache
        for token in _TOKEN_RE.findall(text.lower()):
            if token in self._stopwords:
                continue
            stemmed = cache.get(token)
            if stemmed is None:
                stemmed = self._stem(token)
                cache[token] = stemmed
            out.append(stemmed)
        return out


@lru_cache(maxsize=None)
def get_analyzer(language: str) -> Analyzer:
    return Analyzer(language)


def analyze(text: str, language: str = "en") -> list[str]:
    """Normalize text into analyzer tokens, preserving order."""
    return get_analyzer(language).tokens(text)


@dataclass(frozen=True)
class IdfDictionary:
    """Document frequencies backing IDF weights.

    ``idf(term) = ln(corpus_size / doc_frequency)``; terms absent from
    the dictionary are treated as maximally informative and weigh
    ``ln(corpus_size)``.
    """

    doc_frequencies: Mapping[str, int]
    corpus_size: int
    _fallback_idf: float = field(init=False, repr=False, compare=False, default=0.0)

    def __post_init__(self) -> None:
        if self.corpus_size < 1:
            raise ValueError("corpus_size must be positive")
        object.__setattr__(self, "_fallback_idf", math.log(self.corpus_size))

    def idf(self, term: str) -> float:
        df = self.doc_frequencies.get(term)
        if df is None or df <= 0:
            return self._fallback_idf
        return math.log(self.corpus_size / df)


def load_idf_dictionary(path: str | Path) -> IdfDictionary:
    """Read a ``term TAB doc_frequency`` file with a ``#corpus_size N`` header."""
    corpus_size = None
    frequencies: dict[str, int] = {}
    # Not splitlines(): it would also split a term at U+2028 and other separators.
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith("#corpus_size"):
                corpus_size = _parse_count(line[len("#corpus_size") :], path, lineno)
            continue
        term, sep, count = line.rpartition("\t")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'term<TAB>doc_frequency'")
        frequencies[term] = _parse_count(count, path, lineno)
    if corpus_size is None:
        raise ValueError(f"{path}: missing '#corpus_size N' header")
    bad = next((t for t, df in frequencies.items() if df > corpus_size or df < 1), None)
    if bad is not None:
        raise ValueError(f"{path}: doc_frequency out of range for term {bad!r}")
    return IdfDictionary(frequencies, corpus_size)


def _parse_count(text: str, path: str | Path, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: expected an integer, got {text.strip()!r}") from None


def save_idf_dictionary(idf: IdfDictionary, path: str | Path) -> None:
    """Write ``idf`` as load_idf_dictionary reads it; a term it would misread raises ValueError."""
    with open_replacing(path) as handle:
        handle.write(f"#corpus_size {idf.corpus_size}\n")
        for term, df in sorted(idf.doc_frequencies.items()):
            if term.startswith("#") or any(char in term for char in "\t\n\r"):
                raise ValueError(f"cannot save IDF term {term!r}")
            handle.write(f"{term}\t{df}\n")


@lru_cache(maxsize=1)
def default_idf_dictionary() -> IdfDictionary:
    """The small bundled English dictionary (common-word frequencies)."""
    ref = resources.files("eventcrawl").joinpath("data/idf/default-en.tsv")
    with resources.as_file(ref) as path:
        return load_idf_dictionary(path)


def build_idf_dictionary(
    corpus_paths: Iterable[str | Path], language: str = "en"
) -> IdfDictionary:
    """Count per-term document frequencies over a corpus of text files."""
    analyzer = get_analyzer(language)
    frequencies: Counter[str] = Counter()
    corpus_size = 0
    for path in corpus_paths:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
        tokens = analyzer.tokens(text)
        terms = set(tokens)
        terms.update(" ".join(pair) for pair in zip(tokens, tokens[1:]))
        frequencies.update(terms)
        corpus_size += 1
    if corpus_size == 0:
        raise ValueError("empty corpus: no documents given")
    return IdfDictionary(dict(frequencies), corpus_size)


@dataclass(frozen=True)
class TermVector:
    """Sparse non-negative term weights with a cached Euclidean norm."""

    weights: Mapping[str, float]
    norm: float = field(init=False)

    def __post_init__(self) -> None:
        # Left to right, the same on every Python: sum() of floats compensates from 3.12 on.
        squares = 0.0
        for weight in self.weights.values():
            squares += weight * weight
        object.__setattr__(self, "norm", math.sqrt(squares))

    def scaled(self, factor: float) -> "TermVector":
        return TermVector({t: w * factor for t, w in self.weights.items()})


def vectorize(tokens: list[str], idf: IdfDictionary) -> TermVector:
    """Weight unigrams and adjacent bigrams by raw tf x idf."""
    counts: Counter[str] = Counter(tokens)
    counts.update(" ".join(pair) for pair in zip(tokens, tokens[1:]))
    return TermVector({t: c * idf.idf(t) for t, c in counts.items()})


@dataclass(frozen=True)
class KeywordBoost:
    """Multipliers for terms fully / partially / not covered by keywords."""

    full_overlap_weight: float = 2.0
    partial_overlap_weight: float = 1.5
    no_overlap_weight: float = 1.0

    def __post_init__(self) -> None:
        if not (
            self.full_overlap_weight
            >= self.partial_overlap_weight
            >= self.no_overlap_weight
            > 0
        ):
            raise ValueError("boost weights must satisfy full >= partial >= none > 0")

    def factor_for(self, term: str, keyword_tokens: frozenset[str]) -> float:
        parts = term.split(" ")
        matched = sum(1 for part in parts if part in keyword_tokens)
        if matched == len(parts):
            return self.full_overlap_weight
        if matched:
            return self.partial_overlap_weight
        return self.no_overlap_weight


def boost_vector(
    vector: TermVector, keyword_tokens: frozenset[str], boost: KeywordBoost
) -> TermVector:
    """Reweight terms by keyword overlap; term membership never changes."""
    return TermVector(
        {
            term: weight * boost.factor_for(term, keyword_tokens)
            for term, weight in vector.weights.items()
        }
    )


def keyword_token_set(keywords: Iterable[str], language: str) -> frozenset[str]:
    analyzer = get_analyzer(language)
    tokens: set[str] = set()
    for keyword in keywords:
        tokens.update(analyzer.tokens(keyword))
    return frozenset(tokens)


def build_reference_vector(
    topical: TopicalScope, idf: IdfDictionary, *, index: ArchiveIndex | None = None
) -> TermVector:
    """Vectorize the topical scope: concatenated reference texts, boosted.

    Reference documents are concatenated, analyzed and vectorized as one
    text, then each term's weight is multiplied by its keyword-overlap
    factor. ``index`` is required when any reference is an archive URL.
    """
    texts = resolve_reference_texts(topical, index=index)
    tokens = analyze("\n".join(texts), topical.language)
    vector = vectorize(tokens, idf)
    keyword_tokens = keyword_token_set(topical.keywords, topical.language)
    return boost_vector(vector, keyword_tokens, KeywordBoost())


def resolve_reference_texts(
    topical: TopicalScope, *, index: ArchiveIndex | None = None
) -> list[str]:
    """Materialize reference documents as plain text.

    ``inline`` values pass through, ``file`` values are read from disk,
    and ``archive-url`` values resolve to the earliest HTML capture of
    that URL in the given index.
    """
    texts = []
    for ref in topical.reference_documents:
        if ref.kind == "inline":
            texts.append(ref.value)
        elif ref.kind == "file":
            try:
                texts.append(Path(ref.value).read_text(encoding="utf-8", errors="replace"))
            except OSError as exc:
                raise ValueError(f"unresolvable reference document {ref.value!r}: {exc}")
        elif ref.kind == "archive-url":
            if index is None:
                raise ValueError(
                    f"reference document {ref.value!r} needs an archive index"
                )
            snapshots = index.resolve_snapshots(ref.value)
            if not snapshots:
                raise ValueError(
                    f"unresolvable reference document: {ref.value!r} not in archive"
                )
            texts.append(fetch_document(index, snapshots[0]).scanned().text)
        else:
            raise ValueError(f"unknown reference document kind: {ref.kind!r}")
    return texts
