"""Domain-type behavior: normalization, identity, and the crawled-URI set."""

import inspect
import json
import random
import string
from dataclasses import FrozenInstanceError, fields, replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from vulnchain import (
    START_STATE_ID,
    AttackState,
    EmptyCondition,
    Fsm,
    MalformedUri,
    PostconditionRef,
    PreconditionRef,
    SchemaViolation,
    URI_ALL,
    URI_NULL,
    normalize_condition,
    normalize_uri,
    parse_crawl_list,
    state_id,
)

from tests.helpers import FIXTURES, load_finding_set, random_finding_set, reference_normalize_uri


class TestNormalizeCondition:
    def test_prose_condition_keeps_punctuation(self):
        cond = normalize_condition("Narrow search space of password.")
        assert cond.id == "narrow search space of password."

    def test_whitespace_and_case_collapse(self):
        assert normalize_condition("  Weak   Password ").id == "weak password"

    def test_symbols_survive_and_case_is_ignored(self):
        a = normalize_condition("PHP version <= 2.x.x")
        b = normalize_condition("php Version <= 2.X.X")
        assert a.id == "php version <= 2.x.x"
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(EmptyCondition):
            normalize_condition("   ")
        with pytest.raises(EmptyCondition):
            normalize_condition("")

    def test_idempotent(self):
        cond = normalize_condition(" Mixed\tCase\nText ")
        assert normalize_condition(cond.label).id == cond.id
        assert normalize_condition(cond.id).id == cond.id

    def test_equality_is_by_id_only(self):
        a = normalize_condition("weak password")
        b = normalize_condition("Weak  Password")
        assert a == b
        assert hash(a) == hash(b)
        assert a != normalize_condition("weak password.")


class TestNormalizeUri:
    def test_trailing_slash_removed(self):
        assert normalize_uri("/phpMyAdmin/index.php/").canonical == "/phpMyAdmin/index.php"

    def test_root_preserved(self):
        assert normalize_uri("/").canonical == "/"

    def test_percent_decoding_round_trip(self):
        uri = normalize_uri("/Flash/add%20fla")
        assert uri.canonical == "/Flash/add fla"
        assert uri == normalize_uri("/Flash/add fla")

    def test_sentinels(self):
        assert normalize_uri("ALL URI").canonical == URI_ALL
        assert normalize_uri("NULL").canonical == URI_NULL
        assert normalize_uri("*").canonical == URI_ALL

    def test_query_preserved_verbatim(self):
        raw = "/phpMyAdmin/export.php?what=../../../../../../../../etc/passwd%00"
        uri = normalize_uri(raw)
        assert uri.canonical == raw
        assert uri.path == "/phpMyAdmin/export.php"

    def test_scheme_and_authority_dropped(self):
        assert normalize_uri("http://example.com/a/b?x=1").canonical == "/a/b?x=1"

    def test_relative_path_gains_leading_slash(self):
        assert normalize_uri("login/auth.php").canonical == "/login/auth.php"

    def test_idempotent_on_canonical(self):
        nested_15 = "/a%" + "25" * 15 + "41"  # the deepest nesting accepted
        for raw in ("/a/b/", "/Flash/add%20fla", "ALL URI", "NULL", "/", "/x?q=%00", "/a%2520b",
                    nested_15):
            canonical = normalize_uri(raw).canonical
            assert normalize_uri(canonical).canonical == canonical

    def test_malformed(self):
        with pytest.raises(MalformedUri):
            normalize_uri("   ")
        with pytest.raises(MalformedUri):
            normalize_uri("/a\x00b")
        with pytest.raises(MalformedUri):
            normalize_uri("/a%23b")  # decoded '#' cannot be re-split
        with pytest.raises(MalformedUri):
            normalize_uri("/a%" + "25" * 16 + "41")  # not a fixed point after 16 decodes
        with pytest.raises(MalformedUri):
            normalize_uri("http://[")  # unbalanced IPv6 authority


#: A path segment of the canonical shape, with its leading slash.
SEGMENT = st.text(string.ascii_letters + string.digits + "._~-", min_size=1, max_size=4).map("/{}".format)
#: URI-shaped text: canonical segments, single characters (ASCII punctuation
#: of URIs, blanks, control characters, non-ASCII) and pieces every
#: normalization step acts on.
URI_PIECES = st.one_of(
    SEGMENT,
    st.sampled_from(string.ascii_letters + string.digits + "/._~-%?#:@!$&'()*+,;=" + " \t\x00\x7f"),
    st.characters(min_codepoint=0x80),
    st.sampled_from(["%2F", "%25", "//", "http://h", "/.", "/..", "ALL URI", "NULL", "*"]),
)
#: A canonical path, alone or with one character of the URI alphabet
#: outside the canonical one, or one piece, put in at any position.
NEAR_CANONICAL = st.builds(
    lambda path, at, piece: path[:at % (len(path) + 1)] + piece + path[at % (len(path) + 1):],
    st.lists(SEGMENT, min_size=1, max_size=4).map("".join), st.integers(0, 20),
    st.one_of(st.just(""), st.sampled_from("/%?#:@!$&'()*+,;= \t\x00\x7f\xe9"), URI_PIECES))
#: A near-canonical path, or pieces with and without a leading slash.
URI_TEXT = st.one_of(
    NEAR_CANONICAL,
    st.builds(lambda slash, pieces: "/" * slash + "".join(pieces),
              st.booleans(), st.lists(URI_PIECES, max_size=12)),
)


def _normalized(normalize, raw):
    """``(raw, canonical)`` of a normalized URI, or the message it is
    rejected with."""
    try:
        uri = normalize(raw)
    except MalformedUri as exc:
        return "MalformedUri", str(exc)
    return uri.raw, uri.canonical


class TestNormalizeUriMatchesReference:
    """``normalize_uri`` gives what the general path alone gave, for every
    input: the same raw and canonical text, or the same rejection."""

    @given(URI_TEXT)
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    def test_uri_shaped_text(self, raw):
        assert _normalized(normalize_uri, raw) == _normalized(reference_normalize_uri, raw)

    def test_every_ascii_character_in_every_position_of_a_canonical_path(self):
        for char in [*map(chr, range(128)), "\xe9", "\u2028", "%41", "%2F"]:
            for at in range(len("/ab/c") + 1):
                raw = "/ab/c"[:at] + char + "/ab/c"[at:]
                assert _normalized(normalize_uri, raw) == _normalized(reference_normalize_uri, raw)

    def test_fixture_and_random_corpus_uris(self):
        raws = []
        for name in ("minimal", "vulnweb", "teacher"):
            doc = json.loads((FIXTURES / name / "findings.json").read_text())
            raws += [f["uri"] for f in doc["findings"]]
            for line in (FIXTURES / name / "crawl.txt").read_text().splitlines():
                raws += [line, line.strip()]
        rng = random.Random(17)
        for _ in range(1000):
            raws += [f.uri.raw for f in random_finding_set(rng).findings]
        for raw in raws:
            assert _normalized(normalize_uri, raw) == _normalized(reference_normalize_uri, raw)


class TestStateId:
    def test_injective_over_the_ten_state_instance(self):
        findings = load_finding_set("vulnweb").findings
        ids = {f.id for f in findings}
        assert len(ids) == 10

    def test_four_distinct_states_for_shared_vulnerability(self):
        # Vulnerability A affects two URIs, B and C one each: 2 + 1 + 1 states.
        findings = load_finding_set("minimal").findings
        assert len({f.id for f in findings}) == 4

    def test_stable_and_case_insensitive_on_name(self):
        uri = normalize_uri("/login.php")
        assert state_id("Weak password", uri) == state_id("weak  PASSWORD", uri)
        assert state_id("Weak password", uri) != state_id("Weak password", normalize_uri("/x"))

    def test_state_id_is_derived_never_given(self):
        assert "id" not in inspect.signature(AttackState).parameters
        state = AttackState(vulnerability_name="Weak password", uri=normalize_uri("/login.php"))
        assert state.id == state_id("Weak password", normalize_uri("/login.php"))
        moved = replace(state, uri=normalize_uri("/x"))
        assert moved.id == state_id("Weak password", normalize_uri("/x"))
        assert Fsm(site="", findings=(), facts=()).start.id == START_STATE_ID

    def test_blank_vulnerability_only_for_the_start_state(self):
        with pytest.raises(SchemaViolation, match="vulnerability name must be non-empty"):
            AttackState(vulnerability_name=" ", uri=normalize_uri("/x"))
        assert Fsm(site="", findings=(), facts=()).start.vulnerability_name == ""


class TestRecords:
    def test_records_are_slotted_and_frozen(self):
        cond = normalize_condition("Weak password")
        state = AttackState(vulnerability_name="Weak password", uri=normalize_uri("/login.php"),
                            preconditions=(PreconditionRef(cond),),
                            postconditions=(PostconditionRef(cond),))
        for record in (cond, state.uri, *state.preconditions, *state.postconditions, state):
            assert not hasattr(record, "__dict__"), type(record).__name__
            for f in fields(record):
                with pytest.raises(FrozenInstanceError):
                    setattr(record, f.name, getattr(record, f.name))


class TestUriTree:
    """The crawled-URI set answers membership like a tree of the site:
    every directory above a crawled resource is a member too."""

    def test_directories_created_implicitly(self):
        crawled = parse_crawl_list("/login.php\n/index.php\n/Flash/add fla\n")
        assert "/Flash/add fla" in crawled
        assert "/Flash" in crawled
        assert "/Flash/add" not in crawled
        assert len(crawled) == 5  # root + 2 leaves + Flash dir + its leaf

    def test_empty_tree_has_only_root(self):
        assert parse_crawl_list("") == {"/"}

    def test_duplicate_insert_is_noop(self):
        assert parse_crawl_list("/a/b\n/a/b\n") == {"/", "/a", "/a/b"}

    def test_root_resource(self):
        assert parse_crawl_list("/\n") == {"/"}

    def test_sentinels_rejected(self):
        with pytest.raises(MalformedUri, match="sentinel"):
            parse_crawl_list("ALL URI\n")
        with pytest.raises(MalformedUri, match="sentinel"):
            parse_crawl_list("NULL\n")

    def test_query_uris_are_distinct_leaves(self):
        crawled = parse_crawl_list("/a/b\n/a/b?q=1\n")
        assert "/a/b" in crawled and "/a/b?q=1" in crawled
        assert len(crawled) == 4

    def test_byte_order_mark_is_ignored(self):
        assert parse_crawl_list(b"\xef\xbb\xbf/a.php\n") == {"/", "/a.php"}
        assert parse_crawl_list("\ufeff/a.php\n") == {"/", "/a.php"}
        for name in ("minimal", "vulnweb", "teacher"):
            data = (FIXTURES / name / "crawl.txt").read_bytes()
            assert parse_crawl_list(b"\xef\xbb\xbf" + data) == parse_crawl_list(data)
            assert parse_crawl_list("\ufeff" + data.decode("utf-8")) == parse_crawl_list(data)

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_unicode_line_boundary_stays_in_its_line(self, char):
        # Only CR LF, CR and LF end a line; this one is part of the URI.
        assert parse_crawl_list(f"/a{char}b\n") == {"/", normalize_uri(f"/a{char}b").canonical}

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_control_line_boundary_inside_a_line_rejected(self, char):
        with pytest.raises(MalformedUri, match=r"^line 2: URI contains control characters"):
            parse_crawl_list(f"/ok\n/a{char}b\n")

    def test_query_uri_adds_its_directories_but_not_its_path(self):
        assert parse_crawl_list("/a/b?q=1\n") == {"/", "/a", "/a/b?q=1"}
        assert parse_crawl_list("/?q=1\n") == {"/", "/?q=1"}
