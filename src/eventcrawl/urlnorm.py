"""URL canonicalization for index keys and crawl seen-set identity.

Canonical form: lowercase scheme/host (an IP-literal host keeps its
brackets, which may hold only an IPv6 address, with an optional zone ID,
or an IPvFuture), each non-ASCII host label as ``xn--`` plus its
punycode, no fragment, no default port, query string preserved in order
(parameter order kept to avoid aliasing distinct archived resources),
percent-escapes of unreserved characters decoded, every other escape's
hex in uppercase (RFC 3986 §6.2.2), and each character outside printable
ASCII (``!``-``~``) percent-encoded as UTF-8, as the WHATWG path
percent-encode set does above ``~``. A canonical URL is therefore one
line of printable ASCII, and no rule reads the running interpreter's
Unicode database. Only http/https URLs are considered crawlable.
"""

from __future__ import annotations

import ipaddress
import re
from urllib.parse import quote, urljoin, urlsplit, urlunsplit

__all__ = ["CanonicalizationError", "canonicalize_url"]

# RFC 3986 unreserved characters; their percent-escapes are equivalent
# to the bare character and are decoded for a stable key.
_UNRESERVED = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)

# One rule for a path or a query: an escape, or a run of characters outside
# printable ASCII.
_ESCAPE_OR_UNSAFE_RE = re.compile(r"%([0-9A-Fa-f]{2})|[^!-~]+")

# A host may not hold an ASCII control or the space, nor a character of
# stringprep tables C.1.2 and C.2.2 (non-ASCII spaces and controls) or C.5
# (surrogates, which UTF-8 cannot encode). The stdlib freezes those tables
# at Unicode 3.2, so the class is written out.
_HOST_REFUSED_RE = re.compile(
    "[\x00-\x20\x7f-\xa0\u06dd\u070f\u1680\u180e\u2000-\u200d\u2028\u2029\u202f"
    "\u205f-\u2063\u206a-\u206f\u3000\ud800-\udfff\ufeff\ufff9-\ufffc"
    "\U0001d173-\U0001d17a]"
)

_DEFAULT_PORTS = {"http": 80, "https": 443}

# A host and port whose host is an IP literal; an IPvFuture (unreserved,
# sub-delims and ":", RFC 3986 §3.2.2); and an IPv6 zone ID (unreserved and
# escapes, RFC 6874). So an accepted IP literal is ASCII.
_IP_LITERAL_RE = re.compile(r"\[([^\[\]]*)\](?::[^\[\]]*)?")
_IPV_FUTURE_RE = re.compile(r"v[0-9A-Fa-f]+\.[A-Za-z0-9\-._~!$&'()*+,;=:]+")
_ZONE_ID_RE = re.compile(r"(?:[A-Za-z0-9\-._~]|%[0-9A-Fa-f]{2})+")


class CanonicalizationError(ValueError):
    """Raised for URLs that cannot be turned into a canonical crawl key."""


def _normalize(match: re.Match[str]) -> str:
    """Decode an unreserved escape, uppercase any other, and UTF-8-encode a run."""
    hex_digits = match.group(1)
    if hex_digits is None:
        return quote(match.group(0), safe="")
    char = chr(int(hex_digits, 16))
    return char if char in _UNRESERVED else "%" + hex_digits.upper()


def _check_ip_literal(netloc: str, url: str) -> None:
    """Accept a bracket only around an IPv6 address or an IPvFuture host.

    ``urlsplit`` makes a check like this one only from Python 3.11.4 on;
    making it here gives every version the same answer.
    """
    userinfo, _, hostport = netloc.rpartition("@")
    match = _IP_LITERAL_RE.fullmatch(hostport)
    if match is None or "[" in userinfo or "]" in userinfo:
        raise CanonicalizationError(f"bracket outside an IP-literal host: {url!r}")
    if _IPV_FUTURE_RE.fullmatch(match.group(1)) is None:
        try:
            zone = ipaddress.IPv6Address(match.group(1)).scope_id
        except ValueError:
            raise CanonicalizationError(f"invalid IP-literal host: {url!r}") from None
        if zone is not None and _ZONE_ID_RE.fullmatch(zone) is None:
            raise CanonicalizationError(f"invalid IP-literal host: {url!r}")


def canonicalize_url(url: str, base: str | None = None) -> str:
    """Resolve ``url`` (optionally against ``base``) into canonical form.

    Raises :class:`CanonicalizationError` for empty or unparseable input,
    for relative references without a base, for non-http(s) schemes, for
    hosts with a control or a space character (ASCII, or stringprep's
    tables C.1.2 and C.2.2), for a host, path or query that UTF-8 cannot
    encode (a lone surrogate), and for brackets that do not hold an IPv6 address
    or an IPvFuture (``v1.x``) host in ASCII.
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

    # A "]" without a "[" is refused by urlsplit on every version.
    ip_literal = "[" in parts.netloc
    if ip_literal:
        _check_ip_literal(parts.netloc, url)

    scheme = parts.scheme.lower()
    if not scheme:
        raise CanonicalizationError(f"relative URL without base: {url!r}")
    if scheme not in _DEFAULT_PORTS:
        raise CanonicalizationError(f"unsupported scheme: {scheme!r}")

    host = parts.hostname
    if not host:
        raise CanonicalizationError(f"URL has no host: {url!r}")
    if _HOST_REFUSED_RE.search(host):
        raise CanonicalizationError(f"space or unprintable character in host: {url!r}")
    if not host.isascii():
        host = ".".join(
            label if label.isascii() else "xn--" + label.encode("punycode").decode("ascii")
            for label in host.split(".")
        )

    try:
        port = parts.port
    except ValueError as exc:
        raise CanonicalizationError(f"invalid port in URL: {url!r}") from exc
    if ip_literal:  # an IP literal keeps its brackets
        host = f"[{host}]"
    netloc = host
    if port is not None and port != _DEFAULT_PORTS[scheme]:
        netloc = f"{host}:{port}"

    try:
        path = _ESCAPE_OR_UNSAFE_RE.sub(_normalize, parts.path) or "/"
        query = _ESCAPE_OR_UNSAFE_RE.sub(_normalize, parts.query)
    except UnicodeEncodeError as exc:
        raise CanonicalizationError(f"character UTF-8 cannot encode in URL: {url!r}") from exc

    # Fragment dropped: it never reaches the server, so snapshots are
    # keyed without it.
    return urlunsplit((scheme, netloc, path, query, ""))
