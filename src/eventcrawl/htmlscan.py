"""One-pass HTML scanning shared by text, link, and date extraction.

The crawler parses each fetched page exactly once; the extraction
operations all work from the resulting :class:`ScannedPage`.

Pages are tokenized by compiled regexes over a conservative subset of
HTML, on which the ``html.parser.HTMLParser`` releases of Python 3.10 to
3.13 make the same handler calls. From the first construct outside the
subset on, the ``HTMLParser``-based :class:`_Scanner` reads the rest of
the document, because its reading of malformed markup differs between
Python patch releases.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape
from html.entities import html5 as _HTML5_ENTITIES
from html.parser import HTMLParser
from urllib.parse import urlsplit

from .urlnorm import CanonicalizationError, canonicalize_url

__all__ = ["ScannedPage", "decode_html_bytes", "outlinks", "scan_html"]

_META_CHARSET_RE = re.compile(
    rb"""<meta[^>]+charset\s*=\s*["']?\s*([A-Za-z0-9_.:-]+)""", re.IGNORECASE
)

# Elements whose character data is never visible text.
_INVISIBLE = {"script", "style", "noscript", "template"}

# The subset. Inside tags, whitespace is the ASCII set that both the old
# tokenizer (Unicode \s) and the HTML5 one accept; attributes are
# separated by it, and their values are quoted or plain.
_SPACE = "[ \t\n\r\f]"
_TAG_NAME = "[a-zA-Z][a-zA-Z0-9]*"
_ATTRIBUTE_NAME = "[a-zA-Z_:][-a-zA-Z0-9_:.]*"
_ATTRIBUTE_VALUE = "\"[^\"]*\"|'[^']*'|[^\\s\"'=<>`]+"
_ATTRIBUTE_RE = re.compile(
    f"{_SPACE}+({_ATTRIBUTE_NAME})(?:{_SPACE}*={_SPACE}*({_ATTRIBUTE_VALUE}))?"
)
# Text up to the next "<", then a start tag, a plain end tag, a comment
# without "--" inside, a doctype without quotes, or the end.
_TOKEN_RE = re.compile(
    "([^<]*)(?:"
    f"<({_TAG_NAME})"
    f"((?:{_SPACE}+{_ATTRIBUTE_NAME}(?:{_SPACE}*={_SPACE}*(?:{_ATTRIBUTE_VALUE}))?)*)"
    f"{_SPACE}*(/?)>"
    f"|</({_TAG_NAME})>"
    "|<!--(?!-?>)[^-]*(?:-[^-]+)*-->"
    "|<![dD][oO][cC][tT][yY][pP][eE][^<>\"']*>"
    "|\\Z)"
)
_END_TAG_RE = re.compile(f"</({_TAG_NAME})>")
# Old releases unescape attribute values like text, decoding the longest
# legacy entity prefix (&copy=2 -> ©=2); newer ones decode a named
# reference only when its whole name is an entity and no "=" follows.
# Values whose every "&" starts a numeric or complete ";"-terminated
# reference read the same in both.
_ATTRIBUTE_REF_RE = re.compile(r"&(?:#[0-9]+;|#[xX][0-9a-fA-F]+;|([a-zA-Z][a-zA-Z0-9]*;))?")

# Script and style content is raw text in every release. It is in the
# subset when the first "</" after the start tag begins the element's end
# tag and no "<!--" comes before it.
_SCRIPT_LIKE = {"script", "style"}
# Newer releases read title and textarea content as escapable raw text,
# older ones as markup; the readings agree when the content has no "<".
_ESCAPABLE_RAW_TEXT = {"title", "textarea"}
# Newer releases also read xmp, iframe, noembed and noframes content as
# raw text, and everything after <plaintext> as text; these elements are
# outside the subset.
_OUTSIDE_SUBSET = {"xmp", "iframe", "noembed", "noframes", "plaintext"}


@dataclass
class ScannedPage:
    """Everything later stages need from one HTML document."""

    text: str = ""  # no tags, script or style; entities decoded, spaces collapsed
    links: list[str] = field(default_factory=list)  # raw hrefs, document order
    base_href: str | None = None
    meta_dates: dict[str, str] = field(default_factory=dict)  # lowercased key -> content
    time_datetimes: list[str] = field(default_factory=list)  # <time datetime=...> values


class _PageBuilder:
    """The start-tag, end-tag and data handling shared by both tokenizers."""

    def __init__(self) -> None:
        self.page = ScannedPage()
        self._chunks: list[str] = []
        self._invisible_depth = 0

    # The start tags handle_starttag reads; it ignores every other one.
    READS = frozenset(_INVISIBLE | {"a", "base", "meta", "time"})

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        if tag not in self.READS:
            return
        if tag in _INVISIBLE:
            self._invisible_depth += 1
            return
        attr_map = {name.lower(): value for name, value in attrs if value is not None}
        if tag == "a":
            href = attr_map.get("href")
            if href:
                self.page.links.append(href)
        elif tag == "base":
            if self.page.base_href is None and attr_map.get("href"):
                self.page.base_href = attr_map["href"]
        elif tag == "meta":
            key = attr_map.get("property") or attr_map.get("name")
            content = attr_map.get("content")
            if key and content:
                self.page.meta_dates.setdefault(key.strip().lower(), content.strip())
        elif tag == "time":
            value = attr_map.get("datetime")
            if value:
                self.page.time_datetimes.append(value.strip())

    def handle_endtag(self, tag: str) -> None:
        if tag in _INVISIBLE and self._invisible_depth > 0:
            self._invisible_depth -= 1

    def handle_data(self, data: str) -> None:
        if self._invisible_depth == 0 and data:
            self._chunks.append(data)

    def finish(self) -> ScannedPage:
        # str.split and re's \s treat the same code points as whitespace.
        self.page.text = " ".join(" ".join(self._chunks).split())
        return self.page


class _Scanner(_PageBuilder, HTMLParser):
    def __init__(self) -> None:
        _PageBuilder.__init__(self)
        HTMLParser.__init__(self, convert_charrefs=True)


def decode_html_bytes(body: bytes, declared_charset: str | None = None) -> str:
    """Decode HTML bytes, tolerating mis-declared charsets.

    Tries the charset declared in HTTP headers, then an in-page ``<meta
    charset>``, then UTF-8; undecodable bytes are replaced, never fatal.
    A charset that is unknown, whose codec raises anyway (``undefined``,
    ``idna``) or whose name holds a null character is skipped.
    """
    charsets = []
    if declared_charset:
        charsets.append(declared_charset)
    match = _META_CHARSET_RE.search(body[:2048])
    if match:
        charsets.append(match.group(1).decode("ascii", "replace"))
    for charset in charsets:
        try:
            return body.decode(charset, errors="replace")
        except (LookupError, ValueError):  # ValueError covers UnicodeError
            continue
    return body.decode("utf-8", errors="replace")


def _attributes(markup: str) -> list[tuple[str, str | None]] | None:
    """The (name, value) pairs of a start tag's attribute markup, or None
    if a value holds a reference outside the subset."""
    attrs = []
    for attribute in _ATTRIBUTE_RE.finditer(markup):
        name, value = attribute.groups()  # value is None without "="
        if value is not None:
            if value[0] in "'\"":
                value = value[1:-1]
            if "&" in value:
                for ref in _ATTRIBUTE_REF_RE.finditer(value):
                    named = ref.group(1)
                    if ref.group() == "&" or (named and named not in _HTML5_ENTITIES):
                        return None
                value = unescape(value)
        attrs.append((name.lower(), value))
    return attrs


def _raw_text_end(html: str, start: int, name: str) -> re.Match[str] | None:
    """The end tag of raw-text element ``name`` whose content begins at
    ``start``, or None if the content or its end is outside the subset."""
    if name in _SCRIPT_LIKE:
        close = html.find("</", start)
        if close < 0 or html.find("<!--", start, close) >= 0:
            return None
    else:
        close = html.find("<", start)
    end = _END_TAG_RE.match(html, close) if close >= 0 else None
    return end if end is not None and end.group(1).lower() == name else None


def _scan_subset(builder: _PageBuilder, html: str) -> int:
    """Feed ``builder`` the tokens of ``html`` up to the first one outside
    the subset, including one left unclosed at the end; return where that
    token starts, or ``len(html)``.

    A token outside the subset reaches no handler, so the builder's state
    is the one an ``HTMLParser`` would have after the same prefix.
    """
    pos, size = 0, len(html)
    while pos < size:
        token = _TOKEN_RE.match(html, pos)
        if token is None:
            return pos
        text, tag, attributes, self_closing, end_tag = token.groups()
        name = tag.lower() if tag else ""
        attrs = _attributes(attributes) if name in builder.READS else []
        if attrs is None or name in _OUTSIDE_SUBSET:
            return pos
        raw_end = None
        if name in _SCRIPT_LIKE or name in _ESCAPABLE_RAW_TEXT:
            raw_end = None if self_closing else _raw_text_end(html, token.end(), name)
            if raw_end is None:
                return pos
        if text:
            builder.handle_data(unescape(text))
        pos = token.end()
        if end_tag:
            builder.handle_endtag(end_tag.lower())
        if not name:
            continue
        builder.handle_starttag(name, attrs)
        if self_closing:
            builder.handle_endtag(name)
        elif name in _SCRIPT_LIKE:
            # The content is never visible text, so handle_data would drop it.
            builder.handle_endtag(name)
            pos = raw_end.end()
        # Title and textarea content is the next token, as text.
    return size


def scan_html(html: str) -> ScannedPage:
    """Scan an HTML document in one pass; never raises on bad markup.

    The regex tokenizer scans the document up to the first construct
    outside its subset, and the ``HTMLParser``-based scanner goes on from
    there with the same :class:`_PageBuilder` state, so the result does
    not depend on where the tokenizer stopped.
    """
    scanner = _Scanner()
    stop = _scan_subset(scanner, html)
    if stop < len(html):
        try:
            scanner.feed(html[stop:])
            scanner.close()
        except Exception:
            # HTMLParser raises on some markup, e.g. AssertionError on an unknown
            # marked section (<![foo[); the page keeps what came before it.
            pass
    return scanner.finish()


# A root-relative href that urljoin and canonicalize_url leave as it is: one
# leading "/", then unreserved and sub-delim characters, ":", "@" and "/",
# with no empty, "." or ".." segment. ";" is left out, because urljoin drops
# a trailing one with the empty parameters it splits off.
_ROOT_RELATIVE_RE = re.compile(r"/(?:(?!\.\.?(?:/|\Z))[-A-Za-z0-9._~!$&'()*+,=:@]+(?:/|\Z))*")


def _origin(base: str) -> str | None:
    """``scheme://netloc`` of ``base`` if it is canonical, else None.

    Only a canonical base gives urljoin the netloc that canonicalize_url
    would write for it.
    """
    try:
        if canonicalize_url(base) != base:
            return None
    except CanonicalizationError:
        return None
    parts = urlsplit(base)
    return f"{parts.scheme}://{parts.netloc}"


def outlinks(page: ScannedPage, document_url: str) -> list[str]:
    """Canonical outgoing link targets in first-occurrence order.

    Hrefs resolve against the in-page base element when present, else the
    document URL; non-http(s) and unparseable targets are dropped. A
    root-relative href that canonicalization would not change is joined
    to the canonical base's origin directly.
    """
    base = document_url
    if page.base_href:
        try:
            base = canonicalize_url(page.base_href, document_url)
        except CanonicalizationError:
            pass
    origin = _origin(base)
    seen: set[str] = set()
    result: list[str] = []
    for href in page.links:
        if href.startswith("#"):  # fragment-only: same resource
            continue
        if origin is not None and _ROOT_RELATIVE_RE.fullmatch(href):
            url = origin + href
        else:
            try:
                url = canonicalize_url(href, base)
            except CanonicalizationError:
                continue
        if url not in seen:
            seen.add(url)
            result.append(url)
    return result
