import stringprep

import pytest
from hypothesis import example, given, strategies as st

from eventcrawl.urlnorm import _HOST_REFUSED_RE, CanonicalizationError, canonicalize_url


def test_lowercases_and_strips_default_port_and_fragment():
    assert canonicalize_url("HTTP://Example.DE:80/a#frag") == "http://example.de/a"


def test_relative_resolution_against_base():
    assert canonicalize_url("../b", "http://example.de/x/y") == "http://example.de/b"


def test_unsupported_scheme_rejected():
    with pytest.raises(CanonicalizationError, match="unsupported scheme"):
        canonicalize_url("mailto:x@y", "http://example.de/")


def test_relative_without_base_rejected():
    with pytest.raises(CanonicalizationError):
        canonicalize_url("/only/a/path")


def test_empty_url_rejected():
    with pytest.raises(CanonicalizationError, match="empty"):
        canonicalize_url("   ")


def test_https_default_port_stripped_but_custom_kept():
    assert canonicalize_url("https://h.de:443/x") == "https://h.de/x"
    assert canonicalize_url("https://h.de:8443/x") == "https://h.de:8443/x"
    assert canonicalize_url("http://h.de:443/x") == "http://h.de:443/x"


def test_query_preserved_with_parameter_order():
    url = "http://e.de/p?b=2&a=1&a=3"
    assert canonicalize_url(url) == url


def test_percent_decoding_unreserved_only():
    # %41 is 'A' (unreserved, decoded); %2F is '/' (reserved, kept).
    assert canonicalize_url("http://e.de/%41b%2Fc") == "http://e.de/Ab%2Fc"


def test_empty_path_normalized_to_slash():
    assert canonicalize_url("http://e.de") == "http://e.de/"


def test_space_and_unprintable_characters_percent_encoded():
    assert canonicalize_url("http://a.test/b c?q=x y") == "http://a.test/b%20c?q=x%20y"
    assert canonicalize_url("http://a.test/b\x0bc\u2028d") == "http://a.test/b%0Bc%E2%80%A8d"
    assert canonicalize_url("http://a.test/b%20c") == "http://a.test/b%20c"


def test_unprintable_host_rejected():
    with pytest.raises(CanonicalizationError, match="host"):
        canonicalize_url("http://a\u2028b.test/")


@pytest.mark.parametrize("url", ["http://[::1]/a", "http://[2001:db8::a]:8080/a"])
def test_ip_literal_host_keeps_its_brackets(url):
    assert canonicalize_url(url) == url
    assert canonicalize_url("b", url) == url.removesuffix("a") + "b"


# Written as literals, so every Python version checks the same results:
# urlsplit itself checks brackets only from 3.11.4 on.
@pytest.mark.parametrize(
    "url, expected",
    [
        ("http://[foo]/a", None),
        ("http://[1.2.3.4]/a", None),
        ("http://[::1]:8080/a", "http://[::1]:8080/a"),
        ("http://[v1.x]/a", "http://[v1.x]/a"),
        ("http://[::FFFF:1.2.3.4]/a", "http://[::ffff:1.2.3.4]/a"),
        ("http://[V1.x]/a", None),
        ("http://a[::1]/a", None),
        ("http://[::1]a/a", None),
        ("http://u[1]@[::1]/a", None),
        ("http://[v1.\u00fc]/a", None),
        ("http://[v1.a\"b]/a", None),
        ("http://[fe80::1%25\u00fc]/a", None),
    ],
)
def test_brackets_hold_only_an_ipv6_address_or_an_ipvfuture(url, expected):
    if expected is None:
        with pytest.raises(CanonicalizationError):
            canonicalize_url(url)
    else:
        assert canonicalize_url(url) == expected


_URL_CHARS = st.lists(
    st.sampled_from(
        [*"abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789-._~%/?=&:# \x0b\u2028",
         *"\u00fc\u00df\U0001f6dc\U0001df00", "%C3%c3"]
    ),
    max_size=30,
).map("".join)


_IP_LITERALS = st.sampled_from(
    ["[::1]", "[::1]:8080", "[2001:DB8::A]:80", "[2001:db8::a]:443", "[fe80::1%25eth0]"]
)


@given(
    host=st.one_of(
        st.from_regex(r"[a-z][a-z0-9]{0,10}\.[a-z]{2,3}", fullmatch=True),
        _IP_LITERALS,
        st.sampled_from(["m\u00fcnchen.de", "stra\u00dfe.de"]),
    ),
    rest=_URL_CHARS,
)
@example(host="[::1]", rest="a")
@example(host="[::1]:8080", rest="a")
def test_canonicalize_is_idempotent(host, rest):
    try:
        once = canonicalize_url(f"http://{host}/{rest}")
    except CanonicalizationError:
        return
    assert once.isascii()
    assert canonicalize_url(once) == once


# Every key written out, so each Python version checks the same spelling:
# none of them depends on the interpreter's Unicode database.
@pytest.mark.parametrize(
    "url, expected",
    [
        ("http://a.test/M\u00fcnchen", "http://a.test/M%C3%BCnchen"),
        ("http://a.test/M%c3%bcnchen", "http://a.test/M%C3%BCnchen"),
        ("http://a.test/M%C3%BCnchen", "http://a.test/M%C3%BCnchen"),
        ("http://a.test/?q=M\u00fcnchen%2f%7e", "http://a.test/?q=M%C3%BCnchen%2F~"),
        ("http://m\u00fcnchen.de/a", "http://xn--mnchen-3ya.de/a"),
        ("http://xn--mnchen-3ya.de/a", "http://xn--mnchen-3ya.de/a"),
        ("http://M\u00dcNCHEN.de:80/a", "http://xn--mnchen-3ya.de/a"),
        ("http://stra\u00dfe.de/", "http://xn--strae-oqa.de/"),
        ("http://a.test/\U0001f6dc\U0001df00", "http://a.test/%F0%9F%9B%9C%F0%9D%BC%80"),
        ("http://[fe80::1%25eth0]/a", "http://[fe80::1%25eth0]/a"),
        ("http://[v1.a:b!]/a", "http://[v1.a:b!]/a"),
        ("http://a\u3000b.de/", None),
        ("http://\ud800.de/", None),
        ("http://a.test/\ud800", None),
    ],
)
def test_canonical_keys_are_the_same_on_every_python(url, expected):
    if expected is None:
        with pytest.raises(CanonicalizationError):
            canonicalize_url(url)
    else:
        assert canonicalize_url(url) == expected


def test_host_class_is_stringprep_spaces_controls_and_surrogates():
    # Tables C.1.2, C.2.2 and C.5 list nothing at or above U+20000.
    for code in range(0x20000):
        char = chr(code)
        ascii_control_or_space = code <= 0x20 or code == 0x7F
        listed = any(
            in_table(char)
            for in_table in (stringprep.in_table_c12, stringprep.in_table_c22, stringprep.in_table_c5)
        )
        assert bool(_HOST_REFUSED_RE.match(char)) == (ascii_control_or_space or listed), hex(code)
