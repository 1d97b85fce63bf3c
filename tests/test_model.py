"""Domain-type behavior: normalization, identity, and the crawled-URI set."""

import copy
import inspect
import json
import pickle
import random
import string
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from vulnchain import (
    START_STATE_ID,
    AttackState,
    Condition,
    EmptyCondition,
    Fsm,
    MalformedUri,
    NormalizedUri,
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
                    nested_15, "/a /", "/a%20/", "/a%20/%20/?q", "/a%C2%85", "/a\x85 ",
                    "/a?x\u2028", "http://h//ab", "/%2Fab", "%20//ab", "/%2F%2Fab"):
            canonical = normalize_uri(raw).canonical
            assert normalize_uri(canonical).canonical == canonical

    @pytest.mark.parametrize("raw", ["http://h//ab", "/%2Fab", "%20//ab", "/%2F%2Fab"])
    def test_leading_slashes_of_the_decoded_path_collapse(self, raw):
        assert normalize_uri(raw).canonical == "/ab"

    def test_raw_double_slash_names_a_host_and_no_path(self):
        assert normalize_uri("//ab").canonical == "/"

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

    @pytest.mark.parametrize("raw", [
        "/a%0Ab", "/a%7Fb", "http://h.example/a%00b", "/a%250Ab",
        # At either end of the path, where a strip once dropped them first.
        "/a%0D", "a%0D", "/a%1F", "%0D/a", "/%0Aa", "/a%0D/", "/a%0D%20", "/a%0D?q",
        "http://h.example/a%1F", "/a%250D"])
    def test_percent_decoded_control_character_rejected(self, raw):
        with pytest.raises(MalformedUri) as caught:
            normalize_uri(raw)
        assert str(caught.value) == f"percent-decoded path contains control characters: {raw!r}"

    @pytest.mark.parametrize("raw,canonical", [
        ("/a%C2%85", "/a\x85"), ("/a\x85", "/a\x85"), ("/a\u2028", "/a\u2028"),
        ("/a%E2%80%A8", "/a\u2028"), ("/a%C2%A0", "/a\xa0"), ("/a\xa0", "/a\xa0"),
        ("\u2028/a", "/\u2028/a"), ("/a?x\u2028", "/a?x\u2028")])
    def test_non_ascii_space_at_an_end_is_part_of_the_uri(self, raw, canonical):
        uri = normalize_uri(raw)
        assert uri.canonical == canonical
        assert uri != normalize_uri("/a")
        assert normalize_uri(canonical).canonical == canonical

    @pytest.mark.parametrize("raw,canonical", [
        ("/a%20", "/a"), (" /a ", "/a"), ("%20a", "/a"), ("/a?x ", "/a?x"), ("/a? x", "/a?x"),
        ("/a /", "/a"), ("/a%20/%20/", "/a"), ("/a /?q", "/a?q"), ("/a%20? ", "/a")])
    def test_ascii_space_at_an_end_is_dropped(self, raw, canonical):
        assert normalize_uri(raw).canonical == canonical

    @pytest.mark.parametrize("raw", [" ", " \t", "\n", "\u2028", "\x85", "\xa0 ", "\x1c"])
    def test_whitespace_only_rejected(self, raw):
        with pytest.raises(MalformedUri, match="^URI is whitespace-only$"):
            normalize_uri(raw)


#: A path segment of the canonical shape, with its leading slash.
SEGMENT = st.text(string.ascii_letters + string.digits + "._~-", min_size=1, max_size=4).map("/{}".format)
#: Scheme-and-host prefixes: the absolute canonical form, and near misses
#: (a scheme led by a digit, userinfo, a bracketed host, a bad or empty port).
SCHEME_AND_HOST = ["http://h", "HTTP://h.example:8080", "a+b.c-d://x", "1x://h", "http://u@h",
                   "http://[::1]", "http://h:x", "http://h:"]
#: URI-shaped text: canonical segments, single characters (ASCII punctuation
#: of URIs, blanks, control characters, non-ASCII) and pieces every
#: normalization step acts on.
URI_PIECES = st.one_of(
    SEGMENT,
    st.sampled_from(string.ascii_letters + string.digits + "/._~-%?#:@!$&'()*+,;=" + " \t\x00\x7f"),
    st.characters(min_codepoint=0x80),
    st.sampled_from(["%2F", "%25", "//", "/.", "/..", "ALL URI", "NULL", "*"]),
    st.sampled_from(SCHEME_AND_HOST),
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


@given(URI_TEXT)
@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
def test_canonical_normalizes_to_itself(raw):
    try:
        canonical = normalize_uri(raw).canonical
    except MalformedUri:
        return
    assert normalize_uri(canonical).canonical == canonical


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

    def test_every_scheme_and_host_before_every_near_canonical_path(self):
        paths = ["", "/", "/ab", "/ab/", "/a/b.c", "//ab", "/a%41", "/a b", "/a?q=1", "/a#f", "ab"]
        for prefix in SCHEME_AND_HOST + ["h://h.-9", "x://h:0", "x:/h/a", "x//h", "://h",
                                         "http://[", "http://h]", "http://[h]", "http://h:1:2"]:
            for path in paths:
                for raw in (prefix + path, " " + prefix + path, prefix.upper() + path):
                    assert _normalized(normalize_uri, raw) == _normalized(
                        reference_normalize_uri, raw)

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


def _login_state(pres=(), posts=(), **fields) -> AttackState:
    """A ``Weak password @ /login.php`` state with the named conditions."""
    return AttackState(
        vulnerability_name="Weak password", uri=normalize_uri("/login.php"),
        preconditions=tuple(PreconditionRef(normalize_condition(c)) for c in pres),
        postconditions=tuple(PostconditionRef(normalize_condition(c)) for c in posts),
        **fields)


class TestAttackStateRecord:
    """A state is a frozen record whose id is derived from its fields and
    whose ref lists are stored in id order, each id at most once."""

    def test_frozen_and_replace_derives_the_id_again(self):
        state = _login_state(pres=["a"], posts=["b"], label="S1")
        for f in fields(state):
            with pytest.raises(FrozenInstanceError):
                setattr(state, f.name, getattr(state, f.name))
        renamed = replace(state, vulnerability_name="SQL injection")
        assert renamed.id == state_id("SQL injection", normalize_uri("/login.php"))
        assert replace(state, label="S2").id == state.id
        assert replace(state, preconditions=tuple(reversed(
            state.preconditions + renamed.postconditions))).preconditions == (
            *state.preconditions, *renamed.postconditions)

    def test_equality_hash_and_repr(self):
        state = AttackState(
            vulnerability_name="Weak password", uri=normalize_uri("/login.php"),
            preconditions=(PreconditionRef(normalize_condition("B")),
                           PreconditionRef(normalize_condition("A"), True)),
            postconditions=(PostconditionRef(normalize_condition("C"), True),), label="S1")
        twin = replace(state)
        assert twin == state and twin is not state and hash(twin) == hash(state)
        assert hash(state) == hash(tuple(getattr(state, f.name) for f in fields(state)))
        for change in ({"label": "S2"}, {"is_goal": True}, {"source": "zap"},
                       {"uri": normalize_uri("/x")}):
            assert replace(state, **change) != state
        assert repr(state) == (
            "AttackState(id='e74e75cdfc60', vulnerability_name='Weak password', "
            "uri=NormalizedUri(raw='/login.php', canonical='/login.php'), "
            "preconditions=(PreconditionRef(condition=Condition(id='a', label='A'), "
            "requires_user_action=True), PreconditionRef(condition=Condition(id='b', "
            "label='B'), requires_user_action=False)), "
            "postconditions=(PostconditionRef(condition=Condition(id='c', label='C'), "
            "false_positive=True),), is_goal=False, is_start=False, source='', label='S1')")

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_refs_are_stored_sorted(self, n):
        ids = [f"c{i}" for i in range(n)]
        rng = random.Random(n)
        orders = [ids[::-1], *(rng.sample(ids, n) for _ in range(10))]
        for order in orders:
            state = _login_state(pres=order, posts=order)
            assert [r.condition.id for r in state.preconditions] == ids
            assert [r.condition.id for r in state.postconditions] == ids
        ascending = tuple(PreconditionRef(normalize_condition(c)) for c in ids)
        assert AttackState(vulnerability_name="A", uri=normalize_uri("/a"),
                           preconditions=ascending).preconditions is ascending

    @pytest.mark.parametrize("order", [["a", "a"], ["a", "a", "b"], ["b", "a", "a"],
                                       ["a", "b", "a"], ["b", "a", "c", "b"],
                                       ["a", "b", "c", "A"]],
                             ids=lambda order: "".join(order))
    @pytest.mark.parametrize("kind, argument", [("precondition", "pres"),
                                                ("postcondition", "posts")])
    def test_repeated_condition_id_rejected(self, kind, argument, order):
        repeated = next(c for c in order if order.count(c) > 1 or c.lower() != c).lower()
        with pytest.raises(SchemaViolation) as caught:
            _login_state(**{argument: order})
        assert str(caught.value) == (
            f"Weak password @ /login.php: duplicate {kind} condition {repeated!r}")
        make = PreconditionRef if kind == "precondition" else PostconditionRef
        with pytest.raises(SchemaViolation) as from_iterator:
            AttackState("Weak password", normalize_uri("/login.php"),
                        **{f"{kind}s": (make(normalize_condition(c)) for c in order)})
        assert str(from_iterator.value) == str(caught.value)

    @pytest.mark.parametrize("order", [["a", "b", "c"], ["c", "a", "b"]],
                             ids=["ascending", "unsorted"])
    @pytest.mark.parametrize("field, make", [("preconditions", PreconditionRef),
                                             ("postconditions", PostconditionRef)],
                             ids=["preconditions", "postconditions"])
    def test_refs_given_as_a_one_shot_iterator_are_all_kept(self, field, make, order):
        refs = [make(normalize_condition(c)) for c in order]
        expected = tuple(sorted(refs, key=lambda ref: ref.condition.id))
        state = AttackState("Weak password", normalize_uri("/login.php"),
                            **{field: (ref for ref in refs)})
        assert getattr(state, field) == expected
        assert getattr(replace(_login_state(), **{field: iter(refs)}), field) == expected


#: One record of each kind but ``AttackState``, with its pinned repr.
RECORDS = {
    "Condition": (Condition("weak password", "Weak  Password"),
                  "Condition(id='weak password', label='Weak  Password')"),
    "NormalizedUri": (NormalizedUri("http://h/a/", "/a"),
                      "NormalizedUri(raw='http://h/a/', canonical='/a')"),
    "PreconditionRef": (PreconditionRef(Condition("a", "A"), True),
                        "PreconditionRef(condition=Condition(id='a', label='A'), "
                        "requires_user_action=True)"),
    "PostconditionRef": (PostconditionRef(Condition("c", "C")),
                         "PostconditionRef(condition=Condition(id='c', label='C'), "
                         "false_positive=False)"),
}


class TestRecordContract:
    """The smaller records keep the contract of ``TestAttackStateRecord``:
    frozen, copyable and picklable, compared on their identity fields, with
    a pinned repr and constructor signature."""

    @pytest.mark.parametrize("name", RECORDS)
    def test_frozen(self, name):
        record, _ = RECORDS[name]
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))

    @pytest.mark.parametrize("name", RECORDS)
    def test_replace_copy_and_pickle_give_an_equal_record(self, name):
        record, _ = RECORDS[name]
        twin = replace(record)
        assert twin == record and twin is not record and hash(twin) == hash(record)
        for copied in (copy.copy(record), copy.deepcopy(record),
                       pickle.loads(pickle.dumps(record))):
            assert copied == record and hash(copied) == hash(record)
            assert repr(copied) == repr(record)

    @pytest.mark.parametrize("name", RECORDS)
    def test_repr_is_pinned(self, name):
        record, text = RECORDS[name]
        assert repr(record) == text

    def test_identity_fields(self):
        assert Condition("a", "A") == Condition("a", "other")
        assert hash(Condition("a", "A")) == hash(Condition("a", "other"))
        assert Condition("a", "A") != Condition("b", "A")
        assert NormalizedUri("/a/", "/a") == NormalizedUri("http://h/a", "/a")
        assert hash(NormalizedUri("/a/", "/a")) == hash(NormalizedUri("/a", "/a"))
        assert NormalizedUri("/a", "/a") != NormalizedUri("/a", "/b")
        cond = Condition("a", "A")
        assert PreconditionRef(cond) == PreconditionRef(Condition("a", "x"), False)
        assert PreconditionRef(cond) != PreconditionRef(cond, True)
        assert PostconditionRef(cond) != PostconditionRef(cond, True)
        assert PostconditionRef(cond) != PostconditionRef(Condition("b", "A"))

    def test_signatures(self):
        def parameters(cls):
            return [(p.name, p.kind, p.default)
                    for p in inspect.signature(cls).parameters.values()]

        plain, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
        assert parameters(Condition) == [("id", plain, empty), ("label", plain, empty)]
        assert parameters(NormalizedUri) == [("raw", plain, empty), ("canonical", plain, empty)]
        assert parameters(PreconditionRef) == [("condition", plain, empty),
                                               ("requires_user_action", plain, False)]
        assert parameters(PostconditionRef) == [("condition", plain, empty),
                                                ("false_positive", plain, False)]
        assert parameters(AttackState) == [
            ("vulnerability_name", plain, empty), ("uri", plain, empty),
            ("preconditions", plain, ()), ("postconditions", plain, ()),
            ("is_goal", plain, False), ("is_start", plain, False), ("source", plain, ""),
            ("label", plain, None)]
        # Each hand-written ``__init__`` takes the fields its class declares,
        # with the defaults ``fields()`` reports.
        for cls in (Condition, NormalizedUri, PreconditionRef, PostconditionRef, AttackState):
            assert parameters(cls) == [
                (f.name, plain, empty if f.default is MISSING else f.default)
                for f in fields(cls) if f.init], cls.__name__

    def test_blank_condition_id_rejected(self):
        with pytest.raises(EmptyCondition, match="^condition id must be non-empty$"):
            Condition("", "x")


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

