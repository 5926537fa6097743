import sys
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, strategies as st

from eventcrawl.timeutil import (
    format_iso,
    format_ts14,
    parse_duration,
    parse_iso8601,
    parse_ts14,
)


def test_ts14_round_trip():
    assert format_ts14(parse_ts14("20060610120000")) == "20060610120000"


def test_ts14_rejects_wrong_shape():
    for bad in ("2006", "2006061012000", "20061310120000", "garbage"):
        with pytest.raises(ValueError):
            parse_ts14(bad)


def test_iso_date_expands_start_and_end_of_day():
    start = parse_iso8601("2009-09-27")
    end = parse_iso8601("2009-09-27", end_of_day=True)
    assert start == datetime(2009, 9, 27, tzinfo=timezone.utc)
    assert end == datetime(2009, 9, 27, 23, 59, 59, tzinfo=timezone.utc)


def test_iso_datetime_with_zulu_and_offset():
    assert parse_iso8601("2011-03-12T09:00:00Z") == datetime(
        2011, 3, 12, 9, tzinfo=timezone.utc
    )
    assert parse_iso8601("2011-03-12T10:00:00+01:00") == datetime(
        2011, 3, 12, 9, tzinfo=timezone.utc
    )


def test_format_iso_is_utc_zulu():
    assert format_iso(datetime(2011, 3, 12, 9, tzinfo=timezone.utc)) == "2011-03-12T09:00:00Z"


@pytest.mark.parametrize(
    "text,seconds",
    [
        ("45", 45.0),
        ("45s", 45.0),
        ("12h", 12 * 3600.0),
        ("3d", 3 * 86400.0),
        ("2w", 14 * 86400.0),
        ("6m", 180 * 86400.0),
        ("1y", 365 * 86400.0),
        (90, 90.0),
        (float("inf"), float("inf")),  # no decay
    ],
)
def test_duration_units(text, seconds):
    assert parse_duration(text) == seconds


def test_duration_rejects_garbage():
    for bad in ("", "fast", "3 fortnights", "-2d", float("nan")):
        with pytest.raises(ValueError):
            parse_duration(bad)


@given(
    st.datetimes(
        min_value=datetime(1994, 1, 1),
        max_value=datetime(2035, 12, 31),
    )
)
def test_ts14_round_trips_any_second(dt):
    dt = dt.replace(microsecond=0, tzinfo=timezone.utc)
    assert parse_ts14(format_ts14(dt)) == dt


@given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)))
@example(datetime(999, 1, 1))
@example(datetime(1, 1, 1))
def test_formats_round_trip_every_year(dt):
    dt = dt.replace(microsecond=0, tzinfo=timezone.utc)
    assert parse_ts14(format_ts14(dt)) == dt
    assert parse_iso8601(format_iso(dt)) == dt


@pytest.mark.parametrize("value", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
def test_outside_the_utc_range_is_value_error(value):
    with pytest.raises(ValueError, match="outside the UTC date range"):
        parse_iso8601(value)


@pytest.mark.parametrize(
    "value,end",
    [
        ("20110314", datetime(2011, 3, 14, 23, 59, 59)),  # basic date
        ("2011W10", datetime(2011, 3, 7, 23, 59, 59)),  # week, Monday
        ("2011-W10", datetime(2011, 3, 7, 23, 59, 59)),
        ("2011W10T12", datetime(2011, 3, 7, 12)),  # has a time: not expanded
    ],
)
def test_end_of_day_expands_every_date_only_form(value, end):
    if sys.version_info < (3, 11):  # fromisoformat takes no basic or week forms
        with pytest.raises(ValueError):
            parse_iso8601(value, end_of_day=True)
    else:
        assert parse_iso8601(value, end_of_day=True) == end.replace(tzinfo=timezone.utc)
