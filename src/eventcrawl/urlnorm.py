"""URL canonicalization for index keys and crawl seen-set identity.

Canonical form: lowercase scheme/host (an IP-literal host keeps its
brackets), no fragment, no default port, query string preserved verbatim
(parameter order kept to avoid aliasing distinct archived resources),
percent-escapes of unreserved characters decoded, and the space and
every unprintable character percent-encoded as UTF-8, so that a
canonical URL is one space-free line of text. Only http/https URLs are
considered crawlable.
"""

from __future__ import annotations

import re
from urllib.parse import quote, urljoin, urlsplit, urlunsplit

__all__ = ["CanonicalizationError", "canonicalize_url"]

# RFC 3986 unreserved characters; their percent-escapes are equivalent
# to the bare character and are decoded for a stable key.
_UNRESERVED = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)

_PCT_RE = re.compile(r"%([0-9A-Fa-f]{2})")

_DEFAULT_PORTS = {"http": 80, "https": 443}


class CanonicalizationError(ValueError):
    """Raised for URLs that cannot be turned into a canonical crawl key."""


def _decode_unreserved(component: str) -> str:
    def repl(match: re.Match[str]) -> str:
        char = chr(int(match.group(1), 16))
        return char if char in _UNRESERVED else match.group(0)

    return _PCT_RE.sub(repl, component)


def _encode_unsafe(component: str) -> str:
    """Percent-encode the space and every unprintable character as UTF-8."""
    if component.isprintable() and " " not in component:
        return component
    return "".join(c if c.isprintable() and c != " " else quote(c) for c in component)


def canonicalize_url(url: str, base: str | None = None) -> str:
    """Resolve ``url`` (optionally against ``base``) into canonical form.

    Raises :class:`CanonicalizationError` for empty or unparseable input,
    for relative references without a base, for non-http(s) schemes, for
    hosts with a space or an unprintable character, and for a path or
    query that UTF-8 cannot encode (a lone surrogate).
    """
    if not url or not url.strip():
        raise CanonicalizationError("empty URL")
    url = url.strip()

    try:
        if base is not None:
            url = urljoin(base, url)
        parts = urlsplit(url)
    except ValueError as exc:
        raise CanonicalizationError(f"unparseable URL: {url!r}") from exc

    scheme = parts.scheme.lower()
    if not scheme:
        raise CanonicalizationError(f"relative URL without base: {url!r}")
    if scheme not in _DEFAULT_PORTS:
        raise CanonicalizationError(f"unsupported scheme: {scheme!r}")

    host = parts.hostname
    if not host:
        raise CanonicalizationError(f"URL has no host: {url!r}")
    host = host.lower()
    if not host.isprintable() or " " in host:
        raise CanonicalizationError(f"space or unprintable character in host: {url!r}")

    try:
        port = parts.port
    except ValueError as exc:
        raise CanonicalizationError(f"invalid port in URL: {url!r}") from exc
    if parts.netloc.rpartition("@")[2].startswith("["):  # an IP literal keeps its brackets
        host = f"[{host}]"
    netloc = host
    if port is not None and port != _DEFAULT_PORTS[scheme]:
        netloc = f"{host}:{port}"

    try:
        path = _encode_unsafe(_decode_unreserved(parts.path)) or "/"
        query = _encode_unsafe(_decode_unreserved(parts.query))
    except UnicodeEncodeError as exc:
        raise CanonicalizationError(f"character UTF-8 cannot encode in URL: {url!r}") from exc

    # Fragment dropped: it never reaches the server, so snapshots are
    # keyed without it.
    return urlunsplit((scheme, netloc, path, query, ""))
