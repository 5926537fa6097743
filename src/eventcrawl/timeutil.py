"""Timestamp and duration handling.

All time arithmetic is seconds since epoch, UTC. Archival capture times
use the 14-digit ``YYYYMMDDhhmmss`` form and must round-trip exactly.
ISO-8601 dates and date-times are read by one grammar of this module's
own, not by ``datetime.fromisoformat``, whose forms grew in Python 3.11,
so a WARC-Date or a page's publication time reads the same on every
supported version.
"""

from __future__ import annotations

import re
from datetime import date, datetime, timedelta, timezone

__all__ = [
    "TS14_PATTERN",
    "format_iso",
    "format_ts14",
    "parse_duration",
    "parse_iso8601",
    "parse_ts14",
    "to_epoch",
]

# A valid capture time, the one rule that parse_ts14 and the index line
# grammar check: 14 ASCII digits (``\d`` would also match other scripts'
# digits, which int() reads), years 0001-9999, each month's length, leap
# years (divisible by 4, centuries only by 400), hours below 24, minutes
# and seconds below 60.
_LEAP_YEAR = r"(?:[0-9]{2}(?:0[48]|[2468][048]|[13579][26])|(?:[02468][048]|[13579][26])00)"
TS14_PATTERN = (
    r"(?!0000)(?:[0-9]{4}(?:(?:0[13578]|1[02])(?:0[1-9]|[12][0-9]|3[01])"
    r"|(?:0[469]|11)(?:0[1-9]|[12][0-9]|30)|02(?:0[1-9]|1[0-9]|2[0-8]))"
    rf"|{_LEAP_YEAR}0229)(?:[01][0-9]|2[0-3])[0-5][0-9][0-5][0-9]"
)
_TS14 = re.compile(TS14_PATTERN)
# The ISO-8601 forms parse_iso8601 reads, on every Python version: a
# calendar date (YYYY-MM-DD, YYYYMMDD) or a week date (YYYY-Www[-D],
# YYYYWww[D]); then, after "T" or a space, an optional time (hh, hh:mm,
# hh:mm:ss, hhmm, hhmmss; seconds may carry a fraction after "." or ",");
# then, after a time, an optional zone (Z, z, +hh:mm, +hhmm, +hh or the
# same with "-"). The date and the time are each wholly basic or wholly
# extended, independently of each other.
_ISO8601_RE = re.compile(
    r"(?P<year>[0-9]{4})(?P<dash>-?)"
    r"(?:(?P<month>[0-9]{2})(?P=dash)(?P<day>[0-9]{2})"
    r"|W(?P<week>[0-9]{2})(?:(?P=dash)(?P<weekday>[0-9]))?)"
    r"(?:[T ](?P<hour>[0-9]{2})"
    r"(?:(?P<colon>:?)(?P<minute>[0-9]{2})"
    r"(?:(?P=colon)(?P<second>[0-9]{2})(?:[.,](?P<fraction>[0-9]+))?)?)?"
    r"(?:[Zz]|(?P<sign>[+-])(?P<zone_hour>[01][0-9]|2[0-3])"
    r"(?::?(?P<zone_minute>[0-5][0-9]))?)?)?"
)

# Humane duration units; months and years use fixed civil approximations.
_DURATION_UNITS = {
    "s": 1.0,
    "h": 3600.0,
    "d": 86400.0,
    "w": 7 * 86400.0,
    "m": 30 * 86400.0,
    "y": 365 * 86400.0,
}

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([shdwmy])?\s*$", re.IGNORECASE)


def parse_ts14(value: str) -> datetime:
    """Parse a 14-digit archival timestamp into an aware UTC datetime."""
    if _TS14.fullmatch(value) is None:
        raise ValueError(f"not a valid 14-digit timestamp: {value!r}")
    return datetime(
        int(value[0:4]),
        int(value[4:6]),
        int(value[6:8]),
        int(value[8:10]),
        int(value[10:12]),
        int(value[12:14]),
        tzinfo=timezone.utc,
    )


def format_ts14(when: datetime) -> str:
    # strftime("%Y") does not zero-pad years below 1000 on every platform.
    t = _as_utc(when)
    return f"{t.year:04d}{t.month:02d}{t.day:02d}{t.hour:02d}{t.minute:02d}{t.second:02d}"


def parse_iso8601(value: str, *, end_of_day: bool = False) -> datetime:
    """Parse an ISO-8601 date or date-time into an aware UTC datetime.

    Reads the forms ``_ISO8601_RE`` spells out, the same on every Python
    version, after stripping surrounding whitespace; a fraction of a
    second is cut to the microsecond. Date-only values expand to
    00:00:00, or 23:59:59 when ``end_of_day`` is set; a week without a
    weekday (``2011-W10``) starts on its Monday and ends on its Sunday.
    Values without a zone are taken as UTC. Any other form, a field out
    of range, or a value outside the UTC range raises ValueError.
    """
    text = value.strip()
    if not text:
        raise ValueError("empty timestamp")
    match = _ISO8601_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"invalid ISO-8601 timestamp: {value!r}")
    (year, _, month, day, week, weekday, hour, _, minute, second, fraction,
     sign, zone_hour, zone_minute) = match.groups()
    try:
        if week is None:
            fields = (int(year), int(month), int(day))
        else:
            named = date.fromisocalendar(int(year), int(week), int(weekday or 1))
            fields = (named.year, named.month, named.day)
        parsed = datetime(
            *fields,
            int(hour or 0),
            int(minute or 0),
            int(second or 0),
            int(fraction[:6].ljust(6, "0")) if fraction else 0,
            tzinfo=timezone.utc,
        )
    except ValueError as exc:
        raise ValueError(f"invalid ISO-8601 timestamp: {value!r}") from exc
    try:
        if sign is not None:  # the local time is the UTC time plus the offset
            offset = timedelta(hours=int(zone_hour), minutes=int(zone_minute or 0))
            parsed = parsed - offset if sign == "+" else parsed + offset
        if end_of_day and hour is None:
            days = 6 if week is not None and weekday is None else 0
            parsed = parsed + timedelta(days=days, hours=23, minutes=59, seconds=59)
    except OverflowError:  # 0001-01-01T00:00+01:00, or 9999-W52, whose Sunday is in 10000
        raise ValueError(f"outside the UTC date range: {value!r}") from None
    return parsed


def format_iso(when: datetime) -> str:
    t = _as_utc(when)
    # Whole seconds are written without a fraction, so WARC-Dates keep their form.
    fraction = f".{t.microsecond:06d}" if t.microsecond else ""
    return f"{t.year:04d}-{t.month:02d}-{t.day:02d}T{t.hour:02d}:{t.minute:02d}:{t.second:02d}{fraction}Z"


def to_epoch(when: datetime) -> float:
    return _as_utc(when).timestamp()


def parse_duration(value: str | int | float) -> float:
    """Normalize a duration to seconds.

    Accepts a bare number of seconds or a number with a one-letter unit:
    ``s`` seconds, ``h`` hours, ``d`` days, ``w`` weeks, ``m`` months
    (30 days), ``y`` years (365 days). Infinity is accepted.
    """
    if isinstance(value, (int, float)):
        seconds = float(value)
    else:
        match = _DURATION_RE.match(value)
        if not match:
            raise ValueError(f"invalid duration: {value!r}")
        amount, unit = match.groups()
        seconds = float(amount) * _DURATION_UNITS[(unit or "s").lower()]
    if not seconds >= 0:  # also true for NaN, which json.loads accepts
        raise ValueError(f"negative or NaN duration: {value!r}")
    return seconds


def _as_utc(when: datetime) -> datetime:
    if when.tzinfo is None:
        return when.replace(tzinfo=timezone.utc)
    try:
        return when.astimezone(timezone.utc)
    except OverflowError:  # e.g. 0001-01-01T00:00:00+01:00
        raise ValueError(f"outside the UTC date range: {when.isoformat()}") from None
