"""Timestamp and duration handling.

All time arithmetic is seconds since epoch, UTC. Archival capture times
use the 14-digit ``YYYYMMDDhhmmss`` form and must round-trip exactly.
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

# ASCII only: ``\d`` would also match other scripts' digits, which int() reads.
_TS14_RE = re.compile(r"[0-9]{14}")
# Exactly the values parse_ts14 accepts, as a regular expression: years
# 0001-9999, each month's length, leap years (divisible by 4, centuries
# only by 400), hours below 24, minutes and seconds below 60.
_LEAP_YEAR = r"(?:[0-9]{2}(?:0[48]|[2468][048]|[13579][26])|(?:[02468][048]|[13579][26])00)"
TS14_PATTERN = (
    r"(?!0000)(?:[0-9]{4}(?:(?:0[13578]|1[02])(?:0[1-9]|[12][0-9]|3[01])"
    r"|(?:0[469]|11)(?:0[1-9]|[12][0-9]|30)|02(?:0[1-9]|1[0-9]|2[0-8]))"
    rf"|{_LEAP_YEAR}0229)(?:[01][0-9]|2[0-3])[0-5][0-9][0-5][0-9]"
)
# A week date without a weekday, the one date-only form that names more than a day.
_WEEK_RE = re.compile(r"[0-9]{4}-?W[0-9]{2}")

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
    if _TS14_RE.fullmatch(value) is None:
        raise ValueError(f"not a 14-digit timestamp: {value!r}")
    try:
        return datetime(
            int(value[0:4]),
            int(value[4:6]),
            int(value[6:8]),
            int(value[8:10]),
            int(value[10:12]),
            int(value[12:14]),
            tzinfo=timezone.utc,
        )
    except ValueError as exc:
        raise ValueError(f"invalid archival timestamp: {value!r}") from exc


def format_ts14(when: datetime) -> str:
    # strftime("%Y") does not zero-pad years below 1000 on every platform.
    t = _as_utc(when)
    return f"{t.year:04d}{t.month:02d}{t.day:02d}{t.hour:02d}{t.minute:02d}{t.second:02d}"


def parse_iso8601(value: str, *, end_of_day: bool = False) -> datetime:
    """Parse an ISO-8601 date or date-time into an aware UTC datetime.

    Date-only values (any form ``date.fromisoformat`` accepts) expand to
    00:00:00, or 23:59:59 when ``end_of_day`` is set; a week without a
    weekday (``2011-W10``) starts on its Monday and ends on its Sunday.
    Naive date-times are taken as UTC. A value outside the UTC range
    raises ValueError.
    """
    text = value.strip()
    if not text:
        raise ValueError("empty timestamp")
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ValueError(f"invalid ISO-8601 timestamp: {value!r}") from exc
    if end_of_day:
        try:
            date.fromisoformat(text)
        except ValueError:
            pass  # the value has a time
        else:
            days = 6 if _WEEK_RE.fullmatch(text) else 0
            try:
                parsed = parsed + timedelta(days=days, hours=23, minutes=59, seconds=59)
            except OverflowError:  # e.g. 9999-W52, whose Sunday is in year 10000
                raise ValueError(f"outside the UTC date range: {value!r}") from None
    return _as_utc(parsed)


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
