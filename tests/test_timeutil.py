import re
import sys
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, strategies as st

from eventcrawl.timeutil import (
    TS14_PATTERN,
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


def test_format_iso_writes_a_fraction_only_when_there_is_one():
    half = datetime(2011, 3, 12, 9, 0, 0, 500000, tzinfo=timezone.utc)
    assert format_iso(half) == "2011-03-12T09:00:00.500000Z"
    # The fraction is the UTC time's: a sub-second offset changes it.
    shifted = half.replace(tzinfo=timezone(timedelta(microseconds=250000)))
    assert format_iso(shifted) == "2011-03-12T09:00:00.250000Z"
    assert parse_iso8601(format_iso(half)) == half


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
        ("2011W10", datetime(2011, 3, 13, 23, 59, 59)),  # a week ends on its Sunday
        ("2011-W10", datetime(2011, 3, 13, 23, 59, 59)),
        ("2011W10T12", datetime(2011, 3, 7, 12)),  # has a time: not expanded
    ],
)
def test_end_of_day_expands_every_date_only_form(value, end):
    if sys.version_info < (3, 11):  # fromisoformat takes no basic or week forms
        with pytest.raises(ValueError):
            parse_iso8601(value, end_of_day=True)
    else:
        assert parse_iso8601(value, end_of_day=True) == end.replace(tzinfo=timezone.utc)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="fromisoformat takes no week forms")
def test_week_date_starts_on_monday_and_ends_on_sunday():
    assert parse_iso8601("2011-W10") == datetime(2011, 3, 7, tzinfo=timezone.utc)
    # With a weekday it names one day, like any other date-only form.
    assert parse_iso8601("2011-W10-3", end_of_day=True) == datetime(
        2011, 3, 9, 23, 59, 59, tzinfo=timezone.utc
    )
    with pytest.raises(ValueError, match="outside the UTC date range"):
        parse_iso8601("9999-W52", end_of_day=True)  # its Sunday is in year 10000


def _strptime_ts14(value):
    try:
        return datetime.strptime(value, "%Y%m%d%H%M%S").replace(tzinfo=timezone.utc)
    except ValueError:
        return ValueError


def _parse_ts14_or_error(value):
    try:
        return parse_ts14(value)
    except ValueError:
        return ValueError


_DIGITS = "0123456789"
# Near misses: separators, a stray letter, and decimal digits of other scripts.
_NEAR_DIGITS = _DIGITS + " +-\n\tx/:T\u0660\u0662\u0667\u06f1\u0967\uff10\uff11"


def _one_changed(alphabet):
    """A 14-digit string with one character replaced from ``alphabet``."""
    return st.tuples(
        st.text(_DIGITS, min_size=14, max_size=14),
        st.integers(0, 13),
        st.sampled_from(alphabet),
    ).map(lambda t: t[0][: t[1]] + t[2] + t[0][t[1] + 1 :])


@given(
    st.one_of(
        st.text(_DIGITS, min_size=14, max_size=14),
        # Fields in range, so that many draws are valid timestamps.
        st.datetimes(min_value=datetime(1, 1, 1)).map(lambda d: d.strftime("%Y%m%d%H%M%S")),
        _one_changed(_NEAR_DIGITS),
        st.text(_DIGITS, min_size=12, max_size=16),
        st.text(_NEAR_DIGITS, min_size=14, max_size=14),
    )
)
@example("20110307120000")
@example("20110307120000\n")
@example("\u0662\u0660\u0661\u0661\u0660\u0663\u0660\u0667\u0661\u0662\u0660\u0660\u0660\u0660")
@example("\u0662\u0660\u0661\u06610307120000")  # strptime's %Y takes any decimal digit
@example("2011030712000\uff11")  # so does the second digit of %S
@example("201103 7120000")  # strptime's %d takes a space-padded day
@example(" 2011030712000")
@example("00000101000000")  # year 0
@example("20111307120000")  # month 13
@example("20110007120000")  # month 0
@example("20110230120000")  # 30 February
@example("20110300120000")  # day 0
@example("20110307240000")  # hour 24
@example("20110307126000")  # minute 60
@example("20110307120060")  # second 60, which strptime's pattern takes
@example("20110307120061")
def test_ts14_matches_strptime(value):
    # A 14-digit timestamp is 14 ASCII digits; on those strptime decides.
    # It also takes a few other strings (see the examples), and those raise.
    is_ts14 = len(value) == 14 and value.isascii() and value.isdigit()
    expected = _strptime_ts14(value) if is_ts14 else ValueError
    assert _parse_ts14_or_error(value) == expected


_TS14 = re.compile(TS14_PATTERN)
# Each field drawn from its valid range and one step beyond, with years
# that test the leap rule: multiples of 4, 100 and 400, and year 0.
_FIELDS_NEAR_RANGE = st.tuples(
    st.one_of(
        st.integers(0, 9999),
        st.integers(0, 99).map(lambda c: c * 100),
        st.integers(0, 2499).map(lambda q: q * 4),
    ),
    st.integers(0, 13),
    st.integers(0, 32),
    st.integers(0, 24),
    st.integers(0, 60),
    st.integers(0, 60),
).map(lambda f: "%04d%02d%02d%02d%02d%02d" % f)


@given(
    st.one_of(
        _FIELDS_NEAR_RANGE,
        st.text(_DIGITS, min_size=14, max_size=14),
        _one_changed(_NEAR_DIGITS),
        st.text(_DIGITS, min_size=12, max_size=16),
    )
)
@example("00000229000000")  # year 0 is divisible by 400, and still invalid
@example("00040229000000")
@example("04000229000000")
@example("19000229000000")
@example("20000229000000")
@example("21000229000000")
@example("20110229000000")
@example("20110431000000")
@example("99991231235959")
@example("00010101000000")
@example("20110307120000\n")
@example("\u0662\u0660\u0661\u06610307120000")
def test_ts14_pattern_accepts_what_parse_ts14_accepts(value):
    # The index line grammar embeds the pattern, so the open of an index
    # checks its timestamps without parsing them.
    accepted = _TS14.fullmatch(value) is not None
    assert accepted == (_parse_ts14_or_error(value) is not ValueError)
