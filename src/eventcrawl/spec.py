"""Collection specification: the user-defined scope of one extraction.

A specification couples a topical scope (reference documents plus
optional clarifying keywords), a temporal scope (event interval with
lead and cool-down durations), seed URLs, a document budget, and the
topical/temporal trade-off ``alpha``. Instances are immutable and safe
to share across threads.

Spec files are single JSON documents::

    {
      "name": "election-2009",
      "topical": {
        "reference_documents": [{"kind": "inline", "value": "..."}],
        "keywords": ["wahl"],
        "language": "de"
      },
      "temporal": {
        "event_start": "2009-09-27",
        "event_end": "2009-09-27",
        "lead_time": "6m",
        "cool_down_time": "2w"
      },
      "seeds": ["http://example.de/politik"],
      "target_size": 1000,
      "alpha": 0.5
    }

``kind`` is one of ``inline`` (value is the text), ``file`` (value is a
path, relative paths resolved against the spec file's directory) or
``archive-url`` (value is a URL resolved against the archive index when
the crawl starts). Timestamps are ISO-8601; date-only values expand to
00:00:00 (start) and 23:59:59 (end) UTC. Durations accept humane units
(``2w``, ``3d``, ``6m``) or bare seconds, so ``lead_time`` and
``cool_down_time`` may be a string or a number. A member of another JSON
type than shown (a string for a list, ``true`` or ``"10"`` for a number,
``null`` for anything) is a parse error that names the member's path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path

from .stem import STEMMERS
from .timeutil import format_iso, parse_duration, parse_iso8601, to_epoch
from .urlnorm import CanonicalizationError, canonicalize_url

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_TARGET_SIZE",
    "CollectionSpecification",
    "Diagnostic",
    "ReferenceDocument",
    "SpecParseError",
    "SpecValidationError",
    "TemporalScope",
    "TopicalScope",
    "parse_spec",
    "parse_spec_file",
    "serialize_spec",
    "validate_spec",
]

DEFAULT_ALPHA = 0.5
DEFAULT_TARGET_SIZE = 100_000

REFERENCE_KINDS = ("inline", "file", "archive-url")


class SpecParseError(ValueError):
    """The spec document is not well-formed."""


class SpecValidationError(ValueError):
    """A well-formed spec violates an invariant."""


@dataclass(frozen=True)
class Diagnostic:
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


@dataclass(frozen=True)
class TemporalScope:
    """Event interval plus lead/cool-down decay durations, in seconds."""

    event_start: datetime
    event_end: datetime
    lead_time: float = 0.0
    cool_down_time: float = 0.0

    @property
    def start_epoch(self) -> float:
        return to_epoch(self.event_start)

    @property
    def end_epoch(self) -> float:
        return to_epoch(self.event_end)


@dataclass(frozen=True)
class ReferenceDocument:
    kind: str
    value: str


@dataclass(frozen=True)
class TopicalScope:
    reference_documents: tuple[ReferenceDocument, ...]
    keywords: tuple[str, ...] = ()
    language: str = "en"


@dataclass(frozen=True)
class CollectionSpecification:
    name: str
    topical: TopicalScope
    temporal: TemporalScope
    seeds: tuple[str, ...]
    target_size: int = DEFAULT_TARGET_SIZE
    alpha: float = DEFAULT_ALPHA


def validate_spec(spec: CollectionSpecification) -> list[Diagnostic]:
    """Check every invariant; an empty list means the spec is valid."""
    problems: list[Diagnostic] = []
    if not spec.name or not spec.name.strip():
        problems.append(Diagnostic("name", "name must be non-empty"))

    if spec.temporal.event_start > spec.temporal.event_end:
        problems.append(
            Diagnostic("temporal.event_start", "event_start must not be after event_end")
        )
    if not spec.temporal.lead_time >= 0:  # also true for NaN
        problems.append(Diagnostic("temporal.lead_time", "lead_time must be >= 0"))
    if not spec.temporal.cool_down_time >= 0:
        problems.append(
            Diagnostic("temporal.cool_down_time", "cool_down_time must be >= 0")
        )

    if not spec.topical.reference_documents:
        problems.append(
            Diagnostic(
                "topical.reference_documents",
                "at least one reference document is required",
            )
        )
    for i, ref in enumerate(spec.topical.reference_documents):
        if ref.kind not in REFERENCE_KINDS:
            problems.append(
                Diagnostic(
                    f"topical.reference_documents[{i}].kind",
                    f"kind must be one of {', '.join(REFERENCE_KINDS)}",
                )
            )
        if not ref.value:
            problems.append(
                Diagnostic(f"topical.reference_documents[{i}].value", "value must be non-empty")
            )
    for i, keyword in enumerate(spec.topical.keywords):
        if not keyword.strip():
            problems.append(
                Diagnostic(f"topical.keywords[{i}]", "keywords must be non-empty strings")
            )
    if spec.topical.language not in STEMMERS:
        problems.append(
            Diagnostic(
                "topical.language",
                f"unknown language {spec.topical.language!r}; "
                f"known: {', '.join(sorted(STEMMERS))}",
            )
        )

    if not spec.seeds:
        problems.append(Diagnostic("seeds", "seeds must be non-empty"))
    for i, seed in enumerate(spec.seeds):
        try:
            canonicalize_url(seed)
        except CanonicalizationError as exc:
            problems.append(Diagnostic(f"seeds[{i}]", str(exc)))

    if spec.target_size < 1:
        problems.append(Diagnostic("target_size", "target_size must be >= 1"))
    if not 0.0 <= spec.alpha <= 1.0:
        problems.append(Diagnostic("alpha", "alpha must be within [0, 1]"))
    return problems


def parse_spec(text: str) -> CollectionSpecification:
    """Parse and validate a JSON spec document.

    Raises :class:`SpecParseError` for malformed documents and
    :class:`SpecValidationError` naming the first violated invariant.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecParseError("spec document must be a JSON object")

    try:
        spec = _spec_from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, KeyError):
            raise SpecParseError(f"missing required field {exc.args[0]!r}") from exc
        raise SpecParseError(str(exc)) from exc

    problems = validate_spec(spec)
    if problems:
        raise SpecValidationError(str(problems[0]))
    return spec


def parse_spec_file(path: str | Path) -> CollectionSpecification:
    """Parse a spec file; ``file`` reference paths resolve against its directory."""
    path = Path(path)
    spec = parse_spec(path.read_text(encoding="utf-8"))
    base = path.resolve().parent
    refs = tuple(
        ReferenceDocument(ref.kind, str((base / ref.value)))
        if ref.kind == "file" and not Path(ref.value).is_absolute()
        else ref
        for ref in spec.topical.reference_documents
    )
    return replace(spec, topical=replace(spec.topical, reference_documents=refs))


def _spec_from_doc(doc: dict) -> CollectionSpecification:
    topical_doc = _typed(doc["topical"], "topical", "object")
    temporal_doc = _typed(doc["temporal"], "temporal", "object")

    path = "topical.reference_documents"
    refs = []
    for i, ref in enumerate(_typed(topical_doc.get("reference_documents", []), path, "array")):
        at = f"{path}[{i}]"
        if isinstance(_typed(ref, at, "string", "object"), str):  # shorthand for inline text
            refs.append(ReferenceDocument("inline", ref))
        else:
            kind = _typed(ref["kind"], f"{at}.kind", "string")
            refs.append(ReferenceDocument(kind, _typed(ref["value"], f"{at}.value", "string")))

    keywords = _typed(topical_doc.get("keywords", []), "topical.keywords", "array")
    topical = TopicalScope(
        reference_documents=tuple(refs),
        keywords=tuple(
            _typed(word, f"topical.keywords[{i}]", "string") for i, word in enumerate(keywords)
        ),
        language=_typed(topical_doc.get("language", "en"), "topical.language", "string"),
    )
    lead_time = temporal_doc.get("lead_time", 0)
    cool_down_time = temporal_doc.get("cool_down_time", 0)
    temporal = TemporalScope(
        event_start=parse_iso8601(
            _typed(temporal_doc["event_start"], "temporal.event_start", "string")
        ),
        event_end=parse_iso8601(
            _typed(temporal_doc["event_end"], "temporal.event_end", "string"), end_of_day=True
        ),
        lead_time=parse_duration(_typed(lead_time, "temporal.lead_time", "string", "number")),
        cool_down_time=parse_duration(
            _typed(cool_down_time, "temporal.cool_down_time", "string", "number")
        ),
    )
    target_size = _typed(doc.get("target_size", DEFAULT_TARGET_SIZE), "target_size", "number")
    if isinstance(target_size, float) and not target_size.is_integer():
        raise SpecParseError(f"target_size must be a whole number, not {target_size!r}")
    seeds = _typed(doc.get("seeds", []), "seeds", "array")
    return CollectionSpecification(
        name=_typed(doc["name"], "name", "string"),
        topical=topical,
        temporal=temporal,
        seeds=tuple(_typed(seed, f"seeds[{i}]", "string") for i, seed in enumerate(seeds)),
        target_size=int(target_size),
        alpha=float(_typed(doc.get("alpha", DEFAULT_ALPHA), "alpha", "number")),
    )


# The Python types of each JSON type a spec member may be required to have.
_JSON_TYPES = {"string": (str,), "number": (int, float), "array": (list,), "object": (dict,)}


def _typed(value, path: str, *kinds: str):
    """``value``, if it has one of the JSON types ``kinds``; raises SpecParseError if not.

    Python reads true and false as 1 and 0, so neither is a number here;
    nor is a string an array of letters.
    """
    if isinstance(value, bool) and "number" in kinds:
        raise SpecParseError(f"{path} must be a number, not {json.dumps(value)}")
    if not isinstance(value, tuple(python for kind in kinds for python in _JSON_TYPES[kind])):
        raise SpecParseError(f"{path} must be a JSON {' or '.join(kinds)}")
    return value


def serialize_spec(spec: CollectionSpecification) -> str:
    """Serialize back to the JSON spec format (inverse of parse_spec)."""
    doc = {
        "name": spec.name,
        "topical": {
            "reference_documents": [
                {"kind": ref.kind, "value": ref.value}
                for ref in spec.topical.reference_documents
            ],
            "keywords": list(spec.topical.keywords),
            "language": spec.topical.language,
        },
        "temporal": {
            "event_start": format_iso(spec.temporal.event_start),
            "event_end": format_iso(spec.temporal.event_end),
            "lead_time": spec.temporal.lead_time,
            "cool_down_time": spec.temporal.cool_down_time,
        },
        "seeds": list(spec.seeds),
        "target_size": spec.target_size,
        "alpha": spec.alpha,
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
