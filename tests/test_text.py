import math

import pytest
from hypothesis import given, strategies as st

from eventcrawl.archive import ArchivedDocument, SnapshotRecord
from eventcrawl.spec import ReferenceDocument, TopicalScope
from eventcrawl.stem import porter_stem
from eventcrawl.text import (
    IdfDictionary,
    KeywordBoost,
    TermVector,
    analyze,
    boost_vector,
    build_idf_dictionary,
    build_reference_vector,
    keyword_token_set,
    load_idf_dictionary,
    save_idf_dictionary,
    vectorize,
)


def make_document(body: str) -> ArchivedDocument:
    snapshot = SnapshotRecord("http://e.de/x", "20110305120000", "none.warc", 0, 1)
    return ArchivedDocument(
        snapshot=snapshot,
        headers=[("Content-Type", "text/html; charset=utf-8")],
        body=body.encode("utf-8"),
    )


class TestExtractText:
    def test_tags_stripped(self):
        assert make_document("<p>Hello <b>World</b></p>").scanned().text == "Hello World"

    def test_script_removed(self):
        assert make_document("<script>var x=1;</script>Text").scanned().text == "Text"

    def test_entities_decoded(self):
        assert make_document("&amp;").scanned().text == "&"

    def test_style_removed_and_whitespace_collapsed(self):
        html = "<style>p{color:red}</style><p>a\n\n  b</p>"
        assert make_document(html).scanned().text == "a b"

    def test_undecodable_bytes_replaced(self):
        snapshot = SnapshotRecord("http://e.de/x", "20110305120000", "none.warc", 0, 1)
        doc = ArchivedDocument(snapshot=snapshot, headers=[], body=b"ok \xff\xfe end")
        assert "ok" in doc.scanned().text and "end" in doc.scanned().text


# Stems recorded before the Porter rule tables were sorted once at import.
PORTER_STEMS = {
    "caresses": "caress", "ponies": "poni", "ties": "ti", "caress": "caress", "cats": "cat",
    "feed": "feed", "agreed": "agre", "plastered": "plaster", "bled": "bled",
    "motoring": "motor", "sing": "sing", "conflated": "conflat", "troubled": "troubl",
    "sized": "size", "hopping": "hop", "tanned": "tan", "falling": "fall", "hissing": "hiss",
    "fizzed": "fizz", "failing": "fail", "filing": "file", "happy": "happi", "sky": "sky",
    "relational": "relat", "conditional": "condit", "rational": "ration",
    "valenci": "valenc", "hesitanci": "hesit", "digitizer": "digit",
    "conformabli": "conform", "radicalli": "radic", "differentli": "differ",
    "vileli": "vile", "analogousli": "analog", "vietnamization": "vietnam",
    "predication": "predic", "operator": "oper", "feudalism": "feudal",
    "decisiveness": "decis", "hopefulness": "hope", "callousness": "callous",
    "formaliti": "formal", "sensitiviti": "sensit", "sensibiliti": "sensibl",
    "triplicate": "triplic", "formative": "form", "formalize": "formal",
    "electriciti": "electr", "electrical": "electr", "hopeful": "hope", "goodness": "good",
    "revival": "reviv", "allowance": "allow", "inference": "infer", "airliner": "airlin",
    "gyroscopic": "gyroscop", "adjustable": "adjust", "defensible": "defens",
    "irritant": "irrit", "replacement": "replac", "adjustment": "adjust",
    "dependent": "depend", "adoption": "adopt", "homologou": "homolog",
    "communism": "commun", "activate": "activ", "angulariti": "angular",
    "homologous": "homolog", "effective": "effect", "bowdlerize": "bowdler",
    "probate": "probat", "rate": "rate", "cease": "ceas", "controll": "control",
    "roll": "roll", "generalizations": "gener", "oscillators": "oscil",
    "international": "intern", "organizations": "organ", "earthquake": "earthquak",
    "tsunami": "tsunami", "elections": "elect", "protesters": "protest",
    "demonstrations": "demonstr", "olympics": "olymp", "championship": "championship",
    "reporting": "report", "nationalities": "nation", "a": "a", "is": "is", "by": "by",
}


def test_porter_stems_are_pinned():
    assert {word: porter_stem(word) for word in PORTER_STEMS} == PORTER_STEMS


class TestAnalyze:
    def test_stems_and_removes_stopwords(self):
        assert analyze("The elections were held", "en") == ["elect", "held"]

    def test_empty_input(self):
        assert analyze("", "en") == []

    def test_stopword_only_input(self):
        assert analyze("the and of was", "en") == []

    def test_unknown_language_raises(self):
        with pytest.raises(ValueError, match="unknown language"):
            analyze("text", "zz")

    def test_identity_language_keeps_tokens(self):
        assert analyze("The Elections WERE held", "none") == [
            "the",
            "elections",
            "were",
            "held",
        ]

    def test_deterministic(self):
        text = "Crawling archived election coverage repeatedly"
        assert analyze(text, "en") == analyze(text, "en")


class TestVectorize:
    def test_hand_computed_example(self):
        idf = _FixedIdf({"a": 1.0, "b": 2.0, "a a": 1.0, "a b": 1.0})
        vector = vectorize(["a", "a", "b"], idf)
        assert vector.weights == {"a": 2.0, "b": 2.0, "a a": 1.0, "a b": 1.0}

    def test_empty_tokens_zero_vector(self):
        vector = vectorize([], IdfDictionary({}, corpus_size=2))
        assert vector.weights == {} and vector.norm == 0.0

    def test_single_token_has_no_bigram(self):
        vector = vectorize(["x"], IdfDictionary({}, corpus_size=2))
        assert set(vector.weights) == {"x"}

    def test_norm_matches_recomputation(self):
        idf = IdfDictionary({"a": 1, "b": 2}, corpus_size=4)
        vector = vectorize(["a", "b", "a"], idf)
        recomputed = math.sqrt(sum(w * w for w in vector.weights.values()))
        assert vector.norm == pytest.approx(recomputed, rel=1e-9)

    def test_norm_sums_the_squares_left_to_right(self):
        # Each 2**-54 square is lost against 1.0 in turn; a compensated
        # sum (sum() from Python 3.12 on) would keep their 2000 * 2**-54.
        weights = {"a": 1.0, **{f"t{i}": 2.0**-27 for i in range(2000)}}
        assert TermVector(weights).norm == 1.0

    @given(st.lists(st.sampled_from("abcde"), max_size=30))
    def test_bigram_count_property(self, tokens):
        idf = _FixedIdf({})
        vector = vectorize(tokens, idf)
        bigram_mass = sum(
            count for term, count in vector.weights.items() if " " in term
        )
        assert bigram_mass == max(0, len(tokens) - 1)
        assert all(w >= 0 for w in vector.weights.values())


class _FixedIdf(IdfDictionary):
    """IDF stub returning pinned values (default 1.0)."""

    def __init__(self, values):
        super().__init__({}, corpus_size=2)
        object.__setattr__(self, "_values", dict(values))

    def idf(self, term):
        return self._values.get(term, 1.0)


class TestIdfDictionary:
    def test_ubiquitous_term_has_zero_idf(self, tmp_path):
        (tmp_path / "d1.txt").write_text("shared words here", encoding="utf-8")
        (tmp_path / "d2.txt").write_text("shared words there", encoding="utf-8")
        idf = build_idf_dictionary(sorted(tmp_path.glob("*.txt")))
        assert idf.corpus_size == 2
        assert idf.doc_frequencies["share"] == 2
        assert idf.idf("share") == 0.0

    def test_half_corpus_term(self, tmp_path):
        (tmp_path / "d1.txt").write_text("unique token", encoding="utf-8")
        (tmp_path / "d2.txt").write_text("other content", encoding="utf-8")
        idf = build_idf_dictionary(sorted(tmp_path.glob("*.txt")))
        assert idf.idf("uniqu") == pytest.approx(math.log(2), abs=1e-9)

    def test_unseen_term_policy_log_corpus_size(self):
        idf = IdfDictionary({"x": 1}, corpus_size=8)
        assert idf.idf("never-seen") == pytest.approx(math.log(8))

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_idf_dictionary([])

    def test_file_round_trip(self, tmp_path):
        idf = IdfDictionary({"a": 2, "b c": 1}, corpus_size=5)
        path = tmp_path / "idf.tsv"
        save_idf_dictionary(idf, path)
        loaded = load_idf_dictionary(path)
        assert loaded.doc_frequencies == {"a": 2, "b c": 1}
        assert loaded.corpus_size == 5

    @given(
        st.dictionaries(
            st.text().filter(lambda t: t[:1] != "#" and not any(c in t for c in "\t\n\r")),
            st.integers(min_value=1, max_value=1000),
        ),
        st.integers(min_value=1000, max_value=10**12),
    )
    def test_save_then_load_gives_the_dictionary_back(self, tmp_path_factory, frequencies, size):
        path = tmp_path_factory.mktemp("idf") / "idf.tsv"
        save_idf_dictionary(IdfDictionary(frequencies, size), path)
        loaded = load_idf_dictionary(path)
        assert dict(loaded.doc_frequencies) == frequencies
        assert loaded.corpus_size == size

    def test_term_with_a_line_separator_loads(self, tmp_path):
        path = tmp_path / "idf.tsv"
        save_idf_dictionary(IdfDictionary({"a\u2028b": 1, "c\x85\x0cd": 2}, 2), path)
        assert load_idf_dictionary(path).doc_frequencies == {"a\u2028b": 1, "c\x85\x0cd": 2}

    @pytest.mark.parametrize("term", ["#tag", "#corpus_size", "a\tb", "a\nb", "a\rb"])
    def test_save_rejects_a_term_the_file_cannot_hold(self, tmp_path, term):
        path = tmp_path / "idf.tsv"
        save_idf_dictionary(IdfDictionary({"kept": 1}, 2), path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="cannot save IDF term"):
            save_idf_dictionary(IdfDictionary({"a": 1, term: 1, "z": 1}, 2), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["idf.tsv"]

    def test_df_above_corpus_size_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#corpus_size 2\nterm\t3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="out of range"):
            load_idf_dictionary(path)

    @pytest.mark.parametrize(
        "content, lineno",
        [("#corpus_size\nterm\t1\n", 1), ("#corpus_size 2\nterm\tx\n", 2)],
        ids=["corpus-size-without-number", "doc-frequency-not-a-number"],
    )
    def test_count_that_is_not_a_number_names_file_and_line(self, tmp_path, content, lineno):
        path = tmp_path / "bad.tsv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ValueError, match=f"bad.tsv:{lineno}: expected an integer"):
            load_idf_dictionary(path)


class TestKeywordBoost:
    def test_full_overlap_on_stemmed_unigram(self):
        # Analyzed keyword "election" -> "elect", matching the unigram.
        scope = TopicalScope(
            reference_documents=(ReferenceDocument("inline", "the election results"),),
            keywords=("election",),
            language="en",
        )
        boosted = build_reference_vector(scope, _FixedIdf({}))
        plain = vectorize(analyze("the election results", "en"), _FixedIdf({}))
        assert boosted.weights["elect"] == pytest.approx(2.0 * plain.weights["elect"])

    def test_partial_overlap_on_bigram(self):
        scope = TopicalScope(
            reference_documents=(ReferenceDocument("inline", "the election results"),),
            keywords=("election",),
            language="en",
        )
        boosted = build_reference_vector(scope, _FixedIdf({}))
        plain = vectorize(analyze("the election results", "en"), _FixedIdf({}))
        assert boosted.weights["elect result"] == pytest.approx(
            1.5 * plain.weights["elect result"]
        )

    def test_no_keywords_equals_unboosted_exactly(self):
        scope = TopicalScope(
            reference_documents=(ReferenceDocument("inline", "plain topical text"),),
            keywords=(),
            language="en",
        )
        boosted = build_reference_vector(scope, _FixedIdf({}))
        tokens = analyze("plain topical text", "en")
        assert boosted == vectorize(tokens, _FixedIdf({}))

    def test_all_weights_one_is_identity(self):
        idf = _FixedIdf({})
        vector = vectorize(analyze("election results in germany", "en"), idf)
        neutral = boost_vector(
            vector,
            keyword_token_set(("election", "germany"), "en"),
            KeywordBoost(1.0, 1.0, 1.0),
        )
        assert neutral == vector

    def test_boosting_never_changes_term_membership(self):
        idf = _FixedIdf({})
        vector = vectorize(analyze("election results in germany", "en"), idf)
        boosted = boost_vector(
            vector, keyword_token_set(("election",), "en"), KeywordBoost()
        )
        assert set(boosted.weights) == set(vector.weights)

    def test_invalid_boost_ordering_rejected(self):
        with pytest.raises(ValueError):
            KeywordBoost(1.0, 1.5, 2.0)


class TestReferenceResolution:
    def test_multiple_documents_concatenated(self):
        scope = TopicalScope(
            reference_documents=(
                ReferenceDocument("inline", "alpha beta"),
                ReferenceDocument("inline", "beta gamma"),
            ),
            language="none",
        )
        vector = build_reference_vector(scope, _FixedIdf({}))
        assert vector.weights["beta"] == 2.0

    def test_file_reference(self, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("archived topic words", encoding="utf-8")
        scope = TopicalScope(
            reference_documents=(ReferenceDocument("file", str(ref)),), language="en"
        )
        vector = build_reference_vector(scope, _FixedIdf({}))
        assert "archiv" in vector.weights

    def test_missing_file_reference_raises(self, tmp_path):
        scope = TopicalScope(
            reference_documents=(ReferenceDocument("file", str(tmp_path / "nope")),),
            language="en",
        )
        with pytest.raises(ValueError, match="unresolvable"):
            build_reference_vector(scope, _FixedIdf({}))

    def test_archive_url_without_index_raises(self):
        scope = TopicalScope(
            reference_documents=(ReferenceDocument("archive-url", "http://e.de/x"),),
            language="en",
        )
        with pytest.raises(ValueError, match="archive index"):
            build_reference_vector(scope, _FixedIdf({}))
