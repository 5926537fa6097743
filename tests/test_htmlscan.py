import re

import pytest
from hypothesis import given, settings, strategies as st

from eventcrawl import htmlscan, warc
from eventcrawl.evalharness import SyntheticArchiveConfig, generate_archive
from eventcrawl.htmlscan import ScannedPage, decode_html_bytes, outlinks, scan_html

from oracles import reference_outlinks


class TestScanHtml:
    def test_links_inside_noscript_and_template_are_kept(self):
        page = scan_html(
            '<noscript><a href="/n">no script</a></noscript>'
            '<template><a href="/t">tpl</a></template><p>shown</p>'
        )
        assert page.links == ["/n", "/t"]
        assert page.text == "shown"

    def test_tags_inside_script_and_style_are_ignored(self):
        page = scan_html(
            '<script>var s = "<a href=\'/s\'>x</a>";</script>'
            "<style>p > a { color: red }</style>"
            '<p>visible</p><a href="/real">r</a>'
        )
        assert page.links == ["/real"]
        assert page.text == "visible r"

    def test_first_base_href_and_first_meta_key_win(self):
        page = scan_html(
            '<base href="http://one.test/"><base href="http://two.test/">'
            '<meta property="og:date" content="2011-03-01">'
            '<meta name="OG:Date" content="2012-01-01">'
            '<meta name="other" content=" 2013-05-05 ">'
        )
        assert page.base_href == "http://one.test/"
        assert page.meta_dates == {"og:date": "2011-03-01", "other": "2013-05-05"}

    def test_later_duplicate_attribute_wins_and_valueless_is_ignored(self):
        page = scan_html(
            '<a href="/first" href="/second">x</a>'
            '<a href="/kept" href>y</a>'
            "<a href>z</a>"
            '<time datetime="2011-03-02" datetime="2011-03-03"></time>'
        )
        assert page.links == ["/second", "/kept"]
        assert page.time_datetimes == ["2011-03-03"]

    def test_entities_in_text_and_attributes_are_decoded(self):
        page = scan_html(
            '<p>caf&eacute; &amp; bar &#233;&#x41;</p>'
            '<a href="/q?a=1&amp;b=2">x</a>'
            '<meta property="title" content="Tom &amp; Jerry">'
        )
        assert page.text == "café & bar éA x"
        assert page.links == ["/q?a=1&b=2"]
        assert page.meta_dates == {"title": "Tom & Jerry"}

    def test_upper_case_tags_and_attributes(self):
        page = scan_html(
            '<HTML><BODY><A HREF="/up">Up</A>'
            '<META PROPERTY="Article:Published_Time" CONTENT="2011-03-05">'
            '<TIME DATETIME=" 2011-03-06 ">t</TIME>'
            "<SCRIPT>hidden()</SCRIPT></BODY></HTML>"
        )
        assert page.links == ["/up"]
        assert page.meta_dates == {"article:published_time": "2011-03-05"}
        assert page.time_datetimes == ["2011-03-06"]
        assert page.text == "Up t"

    def test_text_chunks_are_joined_and_whitespace_collapsed(self):
        page = scan_html("<p>  one\n\ttwo</p><p>three</p>four<!-- c -->five  six ")
        assert page.text == "one two three four five six"

    def test_empty_document(self):
        assert scan_html("") == ScannedPage()

    def test_markup_the_parser_raises_on_keeps_the_text_before_it(self):
        # HTMLParser raises AssertionError on an unknown marked section.
        page = scan_html("<p>a<![foo[ b ]]>c")
        assert page.text.split()[0] == "a"


class TestDecodeHtmlBytes:
    def test_meta_charset_whose_codec_raises_falls_back_to_utf8(self):
        body = '<meta charset="undefined"><p>café</p>'.encode("utf-8")
        assert decode_html_bytes(body) == body.decode("utf-8")

    def test_header_charset_whose_codec_raises_falls_back_to_meta(self):
        body = '<meta charset="latin-1"><p>caf\xe9</p>'.encode("latin-1")
        assert decode_html_bytes(body, "idna") == body.decode("latin-1")

    def test_unknown_header_charset_falls_back_to_utf8(self):
        assert decode_html_bytes("<p>é</p>".encode("utf-8"), "no-such-codec") == "<p>é</p>"

    def test_header_charset_holding_a_null_falls_back_to_utf8(self):
        # bytes.decode raises ValueError, not LookupError, for this name.
        assert decode_html_bytes("<p>é</p>".encode("utf-8"), "a\x00b") == "<p>é</p>"


def parser_scan(html: str) -> ScannedPage:
    """The HTMLParser-based scan that the regex tokenizer must agree with."""
    scanner = htmlscan._Scanner()
    scanner.feed(html)
    scanner.close()
    return scanner.finish()


_WORDS = st.sampled_from(
    ["alpha", "Beta", "café", "1", ">", "=", "/", "'", '"', "-->", "--", "-"]
    + ["&amp;", "&eacute;", "&eacute", "&#65;", "&#x42;", "&#9999999;", "&notit;", "&", "&amp"]
)
_SPACES = st.sampled_from([" ", "  ", "\n", "\t", "\r\n", "\f", "\x0b", "\x1c", "\xa0", "\u2028", "\u3000"])
_TEXT = st.lists(st.one_of(_WORDS, _SPACES), max_size=6).map("".join)
_TAG_NAMES = st.sampled_from(
    ["a", "A", "base", "meta", "META", "time", "p", "div", "br", "li", "noscript", "template", "NoScript"]
)
_ATTRIBUTE_NAMES = st.sampled_from(
    ["href", "HREF", "property", "name", "content", "datetime", "DateTime", "class", "data-x", "x:y"]
)
_VALUE_PARTS = st.sampled_from(
    ["/p/1", "http://e.test/a", "x", "", " ", "og:date", "2011-03-01", ">", "<", "é", "\u2028", "\n"]
    + ["'", '"', "&amp;", "&#65;", "&#x41;", "&eacute;", "&lt;&gt;"]
)
_TAG_SPACES = st.sampled_from([" ", "  ", "\n", "\t", "\r\n", "\f"])
_EQUALS = st.sampled_from(["=", " = ", "\n=\t"])


@st.composite
def _subset_attribute(draw):
    name = draw(_ATTRIBUTE_NAMES)
    value = "".join(draw(st.lists(_VALUE_PARTS, max_size=3)))
    quoting = draw(st.sampled_from(["double", "single", "plain", "none"]))
    if quoting == "none":
        return draw(_TAG_SPACES) + name
    if quoting == "plain" and re.fullmatch(r"[^\s\"'=<>`]+", value):
        quoted = value
    elif quoting == "single" and "'" not in value:
        quoted = f"'{value}'"
    else:
        quoted = '"' + value.replace('"', "") + '"'
    return draw(_TAG_SPACES) + name + draw(_EQUALS) + quoted


@st.composite
def _subset_start_tag(draw):
    attributes = "".join(draw(st.lists(_subset_attribute(), max_size=4)))
    ending = draw(st.sampled_from([">", "/>", " />", "\n>"]))
    return f"<{draw(_TAG_NAMES)}{attributes}{ending}"


@st.composite
def _subset_comment(draw):
    # No "--" inside, no "-" at the end, and no ">" or "->" at the start.
    body = "".join(draw(st.lists(st.sampled_from(["a", " ", "-a", "<p>", "<", ">", "\n"]), max_size=6)))
    return f"<!--{'x' if body.startswith('>') else ''}{body}-->"


_SCRIPT_BODY = st.lists(
    st.sampled_from(["if (a<b) {}", "x > y", "'<a href=\"/s\">'", "&amp;", "<!-", "<p>", " ", "\n"]),
    max_size=4,
).map("".join)
_RAW_TEXT = st.lists(st.sampled_from(["alpha", " ", "\n", ">", "é", "-->"]), max_size=4).map("".join)


@st.composite
def _subset_raw_element(draw):
    name = draw(st.sampled_from(["script", "style", "SCRIPT", "title", "textarea"]))
    closing = draw(st.sampled_from([name, name.upper(), name.capitalize()]))
    if name.lower() in ("script", "style"):
        body = draw(_SCRIPT_BODY)
    else:
        body = draw(st.one_of(_RAW_TEXT, _TEXT))
    attributes = "".join(draw(st.lists(_subset_attribute(), max_size=2)))
    return f"<{name}{attributes}>{body}</{closing}>"


_SUBSET_PARTS = st.one_of(
    _TEXT,
    _subset_start_tag(),
    _TAG_NAMES.map(lambda name: f"</{name}>"),
    _subset_comment(),
    st.sampled_from(["<!DOCTYPE html>", "<!doctype html public>"]),
    _subset_raw_element(),
)
_SUBSET_DOCUMENTS = st.lists(_SUBSET_PARTS, max_size=25).map("".join)

# Constructs outside the subset, where HTMLParser releases may disagree.
_MALFORMED_PARTS = st.sampled_from(
    ["<", "< ", "<3", "<>", "</>", "</ p>", "</p >", "</a/b>", "</3>", "</"]
    + ["<!-->", "<!--->", "<!-- a -- b -->", "<!-- a --!>", "<!-- a --->", "<!--", "<!-- x"]
    + ["<!", "<!x>", "<![CDATA[ <a href='/c'> ]]>", "<?pi?>", "<!doctype 'q'>", "<!DOCTYPE"]
    + ["<a href=/x/>", "<a href==x>", "<a href= x>", "<a\x0bhref=x>", "<a\xa0href=x>"]
    + ["<a href='x'title=y>", "<a/href=x>", "<aé href=x>", '<a href="x', "<a href=x", "<a b c"]
    + ["<a href='?a=1&copy=2'>", "<a href='&notit;'>", "<a href='&amp'>", "<a href='&#65'>", "<a href='a&b'>"]
    + ["<plaintext>", "<script/>", "<title/>", "<script>", "<title>", "<style>x", "</script >"]
    + ["<script>x</ script>y</script>", "<script><!--</script>-->", "<script>a</p></script>"]
    + ["<title>a<b>c</title>", "<iframe>&amp;</iframe>", "<xmp><a href='/x'></xmp>", "<textarea>a"]
    + ["<xmp>a</xmp>", "<iframe src='/f'></iframe>", "<NoEmbed>e</NoEmbed>", "<noframes>f</noframes>"]
    + ["<a href='/z' />", "<br/ >", "<a href=\"/q\"\x00>", "\x00"]
)
_MIXED_DOCUMENTS = st.lists(st.one_of(_SUBSET_PARTS, _MALFORMED_PARTS), max_size=25).map("".join)


def subset_scan(html: str) -> tuple[int, ScannedPage]:
    """Where the regex tokenizer stops in ``html``, and what it read."""
    builder = htmlscan._PageBuilder()
    return htmlscan._scan_subset(builder, html), builder.finish()


class TestRegexTokenizer:
    @settings(max_examples=400, deadline=None)
    @given(html=_SUBSET_DOCUMENTS)
    def test_subset_markup_takes_the_regex_path_and_agrees(self, html):
        assert subset_scan(html) == (len(html), parser_scan(html))

    @settings(max_examples=400, deadline=None)
    @given(html=_MIXED_DOCUMENTS)
    def test_any_markup_agrees_with_the_parser(self, html):
        assert scan_html(html) == parser_scan(html)

    @settings(max_examples=400, deadline=None)
    @given(prefix=_SUBSET_DOCUMENTS, text=_TEXT, malformed=_MALFORMED_PARTS, rest=_MIXED_DOCUMENTS)
    def test_the_parser_takes_over_with_the_tokenizer_state(self, prefix, text, malformed, rest):
        html = prefix + text + malformed + rest
        assert scan_html(html) == parser_scan(html)

    @pytest.mark.parametrize(
        "html",
        ["<p>a<b</p>", "<!-- a -- b -->", "<a href='&copy=2'>", "<script>a</p></script>", "<title>t", "<xmp>x</xmp>"],
    )
    def test_constructs_outside_the_subset_go_to_the_parser(self, html):
        assert subset_scan(html)[0] < len(html)
        assert scan_html(html) == parser_scan(html)

    @pytest.mark.parametrize(
        ("prefix", "rest"),
        [
            ('<p>a</p><a href="/x">b</a>', " c<3 d"),
            ("<p>a</p>", " c<xmp>x</xmp>"),
            ("<script>s()</script><title>t</title>", "<a href='?a=1&b=2'>q</a>"),
            ("<!doctype html><noscript>", "<iframe></iframe></noscript>tail"),
            ("", "<!-- a -- b --><p>x</p>"),
        ],
    )
    def test_the_parser_resumes_where_the_subset_ends(self, prefix, rest, monkeypatch):
        html = prefix + rest
        fed = []
        feed = htmlscan._Scanner.feed
        monkeypatch.setattr(htmlscan._Scanner, "feed", lambda self, data: fed.append(data) or feed(self, data))
        assert scan_html(html) == parser_scan(html)
        assert fed[0] == rest

    def test_generated_archive_pages_take_the_regex_path(self, tmp_path, monkeypatch, event_scope):
        fed = []
        monkeypatch.setattr(htmlscan._Scanner, "feed", lambda self, data: fed.append(data))
        config = SyntheticArchiveConfig(
            page_count=60,
            relevant_fraction=0.2,
            topical_locality=0.8,
            event_scope=event_scope,
            capture_time_spread=90 * 86400.0,
            random_seed=5,
        )
        paths, _truth = generate_archive(config, tmp_path)
        pages = 0
        for path in paths:
            for record in warc.iter_raw_records(path):
                if record.record_type != "response":
                    continue
                _status, _headers, body = warc.parse_http_response(record.block)
                page = scan_html(decode_html_bytes(body))
                assert page.links and page.meta_dates and page.text
                pages += 1
        assert pages >= config.page_count
        assert fed == []


_BASES = st.sampled_from(
    ["http://e.test/", "http://e.test/d/x.html", "https://e.test:8443/a?q=1", "http://e.test"]
    + ["HTTP://E.test:80/a", "http://u:p@e.test/", " http://e.test/ ", "http://e.test/ ", "http://e.test\u3000"]
    + ["http://e.test/a b", "ftp://e.test/", "/relative", "http://[::1]/", "http://[x/", "http://é.test/"]
    + ["http://e.test/p#frag", "mailto:x@y"]
)
_BASE_HREFS = st.one_of(st.none(), _BASES, st.sampled_from(["../", "/b/", "sub/", "//o.test/", "#f"]))
_HREF_PARTS = st.sampled_from(
    ["a", "b", "/", "/", ".", "..", "%41", "%2F", "%", "?", "#", "\\", "[", "]", ":", "@", ";"]
    + [" ", "\t", "\n", "\xa0", "é", "\u2028", "\udcff", "~", "!", "'", "(", "=", "&", "+", "-", "_"]
    + ["http://o.test", "//o.test", "mailto:", "HTTP://E.TEST:80"]
)
_HREFS = st.one_of(
    st.lists(_HREF_PARTS, max_size=6).map("".join),
    st.lists(_HREF_PARTS, max_size=6).map(lambda parts: "/" + "".join(parts)),
)


class TestOutlinks:
    @settings(max_examples=500, deadline=None)
    @given(document_url=_BASES, base_href=_BASE_HREFS, links=st.lists(_HREFS, max_size=8))
    def test_agrees_with_canonicalizing_every_href(self, document_url, base_href, links):
        page = ScannedPage(links=links, base_href=base_href)
        assert outlinks(page, document_url) == reference_outlinks(page, document_url)

    def test_root_relative_hrefs_join_the_canonical_origin(self):
        page = ScannedPage(links=["/p/00070", "/a/../b", "/a;", "/x?q", "/"])
        assert outlinks(page, "http://e.test:8080/d/") == [
            "http://e.test:8080/p/00070",
            "http://e.test:8080/b",
            "http://e.test:8080/a",
            "http://e.test:8080/x?q",
            "http://e.test:8080/",
        ]
