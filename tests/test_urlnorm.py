import pytest
from hypothesis import example, given, strategies as st

from eventcrawl.urlnorm import CanonicalizationError, canonicalize_url


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


_URL_CHARS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789-._~%/?=&:# \x0b\u2028",
    min_size=0,
    max_size=30,
)


_IP_LITERALS = st.sampled_from(
    ["[::1]", "[::1]:8080", "[2001:DB8::A]:80", "[2001:db8::a]:443", "[fe80::1%25eth0]"]
)


@given(
    host=st.one_of(st.from_regex(r"[a-z][a-z0-9]{0,10}\.[a-z]{2,3}", fullmatch=True), _IP_LITERALS),
    rest=_URL_CHARS,
)
@example(host="[::1]", rest="a")
@example(host="[::1]:8080", rest="a")
def test_canonicalize_is_idempotent(host, rest):
    try:
        once = canonicalize_url(f"http://{host}/{rest}")
    except CanonicalizationError:
        return
    assert canonicalize_url(once) == once
