"""Domain-type behavior: normalization, identity, and the crawled-URI set."""

import inspect
from dataclasses import replace

import pytest

from vulnchain import (
    START_STATE_ID,
    AttackState,
    EmptyCondition,
    MalformedUri,
    SchemaViolation,
    URI_ALL,
    URI_NULL,
    normalize_condition,
    normalize_uri,
    parse_crawl_list,
    state_id,
)

from tests.helpers import load_finding_set


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
        assert AttackState.make_start(()).id == START_STATE_ID

    def test_blank_vulnerability_only_for_the_start_state(self):
        with pytest.raises(SchemaViolation, match="vulnerability name must be non-empty"):
            AttackState(vulnerability_name=" ", uri=normalize_uri("/x"))
        assert AttackState.make_start(()).vulnerability_name == ""


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

    def test_query_uri_adds_its_directories_but_not_its_path(self):
        assert parse_crawl_list("/a/b?q=1\n") == {"/", "/a", "/a/b?q=1"}
        assert parse_crawl_list("/?q=1\n") == {"/", "/?q=1"}
