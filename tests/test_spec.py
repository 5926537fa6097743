import json
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from eventcrawl.spec import (
    REFERENCE_KINDS,
    CollectionSpecification,
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
from eventcrawl.stem import STEMMERS

MINIMAL = {
    "name": "test-event",
    "topical": {
        "reference_documents": [{"kind": "inline", "value": "some reference text"}],
        "keywords": ["election"],
        "language": "en",
    },
    "temporal": {
        "event_start": "2009-09-27",
        "event_end": "2009-09-27",
        "lead_time": "6m",
        "cool_down_time": "2w",
    },
    "seeds": ["http://example.de/politik"],
}


def doc(**overrides):
    merged = json.loads(json.dumps(MINIMAL))
    merged.update(overrides)
    return json.dumps(merged)


def test_defaults_applied_when_omitted():
    spec = parse_spec(doc())
    assert spec.alpha == 0.5
    assert spec.target_size == 100_000


def test_date_only_values_expand_to_day_bounds():
    spec = parse_spec(doc())
    assert spec.temporal.event_start == datetime(2009, 9, 27, tzinfo=timezone.utc)
    assert spec.temporal.event_end == datetime(2009, 9, 27, 23, 59, 59, tzinfo=timezone.utc)


def test_durations_normalized_to_seconds():
    spec = parse_spec(doc())
    assert spec.temporal.lead_time == 180 * 86400.0
    assert spec.temporal.cool_down_time == 14 * 86400.0


def test_empty_seeds_is_validation_error():
    with pytest.raises(SpecValidationError, match="seeds"):
        parse_spec(doc(seeds=[]))


def test_malformed_json_is_parse_error():
    with pytest.raises(SpecParseError):
        parse_spec("{not json")


def test_date_outside_the_utc_range_is_parse_error():
    temporal = dict(MINIMAL["temporal"], event_start="0001-01-01T00:00:00+01:00")
    with pytest.raises(SpecParseError, match="outside the UTC date range"):
        parse_spec(doc(temporal=temporal))


def test_missing_required_field_is_parse_error():
    body = json.loads(doc())
    del body["name"]
    with pytest.raises(SpecParseError, match="name"):
        parse_spec(json.dumps(body))


def test_round_trip_preserves_all_fields():
    spec = parse_spec(doc(alpha=0.25, target_size=42))
    again = parse_spec(serialize_spec(spec))
    assert again == spec


def test_round_trip_keeps_fractional_seconds():
    temporal = dict(
        MINIMAL["temporal"], event_start="2011-03-01T00:00:00.5Z", event_end="2011-03-14"
    )
    spec = parse_spec(doc(temporal=temporal))
    text = serialize_spec(spec)
    assert '"event_start": "2011-03-01T00:00:00.500000Z"' in text
    # A whole second is written as before, without a fraction.
    assert '"event_end": "2011-03-14T23:59:59Z"' in text
    again = parse_spec(text)
    assert again.temporal.start_epoch == 1298937600.5
    assert again == spec


_non_blank = st.text(min_size=1).filter(str.strip)
# Whole-minute offsets, and a sub-second one: its UTC time has another fraction.
_zones = st.sampled_from(
    [
        timezone.utc,
        timezone(timedelta(hours=5, minutes=30)),
        timezone(-timedelta(hours=9)),
        timezone(timedelta(seconds=1, microseconds=250_000)),
    ]
)
# One day in from each end of the calendar, so that no offset leaves the UTC range.
_instants = st.datetimes(
    min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30), timezones=_zones
)


@st.composite
def _specs(draw):
    start, end = sorted([draw(_instants), draw(_instants)], key=lambda t: t.timestamp())
    durations = st.floats(min_value=0.0, allow_nan=False)
    seeds = st.lists(st.from_regex(r"https?://[a-z]{1,8}\.test/[a-z0-9/]{0,12}", fullmatch=True))
    kinds = st.sampled_from(REFERENCE_KINDS)
    references = st.builds(ReferenceDocument, kinds, st.text(min_size=1))
    return CollectionSpecification(
        name=draw(_non_blank),
        topical=TopicalScope(
            reference_documents=tuple(draw(st.lists(references, min_size=1, max_size=3))),
            keywords=tuple(draw(st.lists(_non_blank, max_size=3))),
            language=draw(st.sampled_from(sorted(STEMMERS))),
        ),
        temporal=TemporalScope(start, end, draw(durations), draw(durations)),
        seeds=tuple(draw(seeds.filter(bool))),
        target_size=draw(st.integers(min_value=1, max_value=10**12)),
        alpha=draw(st.floats(min_value=0.0, max_value=1.0)),
    )


@given(_specs())
def test_serialize_then_parse_gives_the_spec_back(spec):
    assert validate_spec(spec) == []
    assert parse_spec(serialize_spec(spec)) == spec


def test_parsed_spec_passes_validation():
    assert validate_spec(parse_spec(doc())) == []


def _make_spec(**overrides):
    base = dict(
        name="x",
        topical=TopicalScope(
            reference_documents=(ReferenceDocument("inline", "text"),),
            keywords=(),
            language="en",
        ),
        temporal=TemporalScope(
            event_start=datetime(2009, 1, 2, tzinfo=timezone.utc),
            event_end=datetime(2009, 1, 5, tzinfo=timezone.utc),
        ),
        seeds=("http://e.de/a",),
    )
    base.update(overrides)
    return CollectionSpecification(**base)


def test_validate_flags_inverted_interval():
    spec = _make_spec(
        temporal=TemporalScope(
            event_start=datetime(2009, 1, 5, tzinfo=timezone.utc),
            event_end=datetime(2009, 1, 2, tzinfo=timezone.utc),
        )
    )
    problems = validate_spec(spec)
    assert len(problems) == 1
    assert problems[0].field == "temporal.event_start"


def test_validate_flags_alpha_range():
    problems = validate_spec(_make_spec(alpha=1.5))
    assert [p.field for p in problems] == ["alpha"]


def test_validate_flags_bad_seed_and_keyword():
    spec = _make_spec(
        seeds=("ftp://e.de/a",),
        topical=TopicalScope(
            reference_documents=(ReferenceDocument("inline", "text"),),
            keywords=("  ",),
            language="en",
        ),
    )
    fields = {p.field for p in validate_spec(spec)}
    assert fields == {"seeds[0]", "topical.keywords[0]"}


def test_validate_flags_unknown_language():
    spec = _make_spec(
        topical=TopicalScope(
            reference_documents=(ReferenceDocument("inline", "t"),),
            language="xx",
        )
    )
    assert [p.field for p in validate_spec(spec)] == ["topical.language"]


@pytest.mark.parametrize("field", ["lead_time", "cool_down_time"])
def test_validate_flags_nan_duration(field):
    spec = _make_spec()
    spec = replace(spec, temporal=replace(spec.temporal, **{field: float("nan")}))
    assert [p.field for p in validate_spec(spec)] == [f"temporal.{field}"]


def test_parse_spec_file_resolves_relative_reference_paths(tmp_path):
    ref = tmp_path / "ref.txt"
    ref.write_text("reference body", encoding="utf-8")
    body = json.loads(doc())
    body["topical"]["reference_documents"] = [{"kind": "file", "value": "ref.txt"}]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(body), encoding="utf-8")
    spec = parse_spec_file(spec_path)
    assert spec.topical.reference_documents[0].value == str(ref)



def doc_at(path, value):
    """The minimal spec as JSON, with the member at dotted ``path`` set to ``value``."""
    body = json.loads(doc())
    scope, _, key = path.rpartition(".")
    (body[scope] if scope else body)[key] = value
    return json.dumps(body)


@pytest.mark.parametrize(
    "path, value",
    [
        ("topical.keywords", "flood"),
        ("topical.reference_documents", "flood in the old town"),
        ("topical.reference_documents", {"kind": "inline", "value": "flood"}),
        ("seeds", "http://a.test/"),
    ],
)
def test_a_list_field_that_is_not_a_json_array_is_parse_error(path, value):
    with pytest.raises(SpecParseError, match=rf"^{path} must be a JSON array$"):
        parse_spec(doc_at(path, value))


@pytest.mark.parametrize("path", ["topical", "temporal"])
@pytest.mark.parametrize("value", ["x", [], None])
def test_a_scope_that_is_not_a_json_object_is_parse_error(path, value):
    with pytest.raises(SpecParseError, match=rf"^{path} must be a JSON object$"):
        parse_spec(doc_at(path, value))


def test_a_bare_string_stays_one_inline_reference():
    spec = parse_spec(doc_at("topical.reference_documents", ["flood in the old town"]))
    assert spec.topical.reference_documents == (
        ReferenceDocument("inline", "flood in the old town"),
    )


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "path", ["temporal.lead_time", "temporal.cool_down_time", "target_size", "alpha"]
)
def test_a_boolean_is_not_a_number(path, flag):
    with pytest.raises(SpecParseError, match=rf"^{path} must be a number, not {json.dumps(flag)}$"):
        parse_spec(doc_at(path, flag))


@pytest.mark.parametrize("size", [42.5, float("inf"), float("nan")])
def test_target_size_that_is_not_a_whole_number_is_parse_error(size):
    with pytest.raises(SpecParseError, match="^target_size must be a whole number"):
        parse_spec(doc_at("target_size", size))  # json.dumps writes Infinity and NaN


def test_target_size_written_as_a_whole_float_is_read_as_an_integer():
    spec = parse_spec(doc_at("target_size", 42.0))
    assert spec.target_size == 42 and isinstance(spec.target_size, int)


@pytest.mark.parametrize(
    "path, value, kind",
    [
        ("name", None, "string"),
        ("name", 42, "string"),
        ("topical.language", None, "string"),
        ("temporal.event_start", 20110301, "string"),
        ("temporal.event_end", None, "string"),
        ("temporal.lead_time", None, "string or number"),
        ("temporal.cool_down_time", [], "string or number"),
        ("target_size", "10", "number"),
        ("alpha", "0.5", "number"),
        ("alpha", None, "number"),
    ],
)
def test_a_member_of_another_json_type_is_parse_error(path, value, kind):
    with pytest.raises(SpecParseError, match=rf"^{path} must be a JSON {kind}$"):
        parse_spec(doc_at(path, value))


@pytest.mark.parametrize(
    "path, items, message",
    [
        ("topical.keywords", [1, None], r"topical\.keywords\[0\] must be a JSON string"),
        ("topical.keywords", ["flood", None], r"topical\.keywords\[1\] must be a JSON string"),
        ("seeds", [None], r"seeds\[0\] must be a JSON string"),
        (
            "topical.reference_documents",
            [5],
            r"topical\.reference_documents\[0\] must be a JSON string or object",
        ),
        (
            "topical.reference_documents",
            [{"kind": "inline", "value": None}],
            r"topical\.reference_documents\[0\]\.value must be a JSON string",
        ),
        (
            "topical.reference_documents",
            ["text", {"kind": 1, "value": "x"}],
            r"topical\.reference_documents\[1\]\.kind must be a JSON string",
        ),
    ],
)
def test_an_array_item_of_another_json_type_is_parse_error(path, items, message):
    with pytest.raises(SpecParseError, match=rf"^{message}$"):
        parse_spec(doc_at(path, items))


@pytest.mark.parametrize("path", ["temporal.lead_time", "temporal.cool_down_time"])
def test_a_duration_may_be_a_string_or_a_number(path):
    spec = parse_spec(doc_at(path, 90))
    assert spec.temporal == parse_spec(doc_at(path, "90s")).temporal
