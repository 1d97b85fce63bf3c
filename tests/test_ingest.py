"""Crawl-list and findings-document parsing, validation, and round trips."""

import json
import re
from collections import Counter
from dataclasses import replace

import pytest

from vulnchain import (
    DuplicateState,
    MalformedUri,
    SchemaViolation,
    UnknownAssumptionFlag,
    Fsm,
    build_fsm,
    fsm_from_json,
    fsm_to_json,
    parse_crawl_list,
    parse_findings,
    report_from_json,
)
from vulnchain.ingest import FSM_FORMAT_VERSION

from tests.helpers import (CLI_INPUTS, FIXTURES, finding_entry, load_finding_set, load_tree,
                           machine_of, serialize_findings)
from tests.test_fuzz import RETYPED, _entries


def _doc(findings=(), facts=(), site="test"):
    return json.dumps({
        "site": site,
        "environment_facts": list(facts),
        "findings": list(findings),
    })


def _row(vuln="V", uri="/x", pres=(), posts=(), **extra):
    row = {
        "vulnerability": vuln,
        "uri": uri,
        "preconditions": list(pres),
        "postconditions": list(posts),
    }
    row.update(extra)
    return row


class TestParseCrawlList:
    def test_example_tree(self):
        crawled = parse_crawl_list("/login.php\n/index.php\n/Flash/add fla\n")
        assert crawled == {"/", "/Flash", "/Flash/add fla", "/index.php", "/login.php"}

    def test_empty_input(self):
        assert parse_crawl_list("") == {"/"}

    def test_duplicates_deduplicated(self):
        assert len(parse_crawl_list("/a/b\n/a/b\n")) == 3

    def test_comments_and_blank_lines_ignored(self):
        assert parse_crawl_list("# header\n\n/x\n  \n# trailing\n") == {"/", "/x"}
        assert parse_crawl_list("\t# header\n \t\n\t/x \t\n") == {"/", "/x"}

    def test_malformed_line_number_reported(self):
        with pytest.raises(MalformedUri, match="line 3"):
            parse_crawl_list("/ok\n# fine\n/bad\x00uri\n")
        # Only CR LF, CR and LF end a line; a trailing Unicode line boundary
        # is part of the URI.
        for char in "\u2028\u2029\x85":
            with pytest.raises(MalformedUri, match=r"^line 2: "):
                parse_crawl_list(f"/a{char}\n/b\x00\n")
            with pytest.raises(MalformedUri, match=r"^line 4: "):
                parse_crawl_list(f"/a{char}\r\n/b\r/c{char}\n/d\x00\n")
        # Only spaces and tabs are stripped from a line's ends: a control
        # character or DEL at either end is rejected, as in a finding URI.
        for char in "\x0b\x0c\x1c\x1d\x1e\x1f\x00\x7f":
            for text, lineno in [(f"/a{char}\n/b\n", 1), (f"/ok\n{char}/b\n", 2),
                                 (f"/ok\r\n# fine\r \t{char}/c \t\n", 3)]:
                with pytest.raises(MalformedUri,
                                   match=rf"^line {lineno}: URI contains control characters"):
                    parse_crawl_list(text)
        with pytest.raises(MalformedUri, match=r"^line 1: URI contains control characters"):
            parse_crawl_list("/a\x0c\n\x1f/b\n")

    @pytest.mark.parametrize("entry", ["/a%0D", "a%0D", "/a%1F", "%0D/a"])
    def test_percent_decoded_control_character_at_an_end_names_its_line(self, entry):
        with pytest.raises(MalformedUri) as caught:
            parse_crawl_list(f"/ok\n# fine\n{entry}\n")
        assert str(caught.value) == (
            f"line 3: percent-decoded path contains control characters: {entry!r}")

    def test_unicode_line_boundary_at_a_line_end_is_kept(self):
        assert parse_crawl_list("/a\u2028\n/b%C2%85\n") == {"/", "/a\u2028", "/b\x85"}


class TestParseFindings:
    def test_vulnweb_fixture_shape(self):
        fs = load_finding_set("vulnweb")
        assert len(fs.findings) == 10
        goals = sorted(f.label for f in fs.findings if f.is_goal)
        assert goals == ["S10", "S4", "S7"]
        user_action = [
            r for f in fs.findings for r in f.preconditions if r.requires_user_action
        ]
        assert len(user_action) == 3
        assert machine_of(fs).warnings == ()

    def test_empty_findings_with_one_fact(self):
        fs = parse_findings(_doc(facts=["Server banner exposed"]))
        assert fs.findings == ()
        assert [c.id for c in fs.environment_facts] == ["server banner exposed"]

    def test_false_positive_flag_parsed(self):
        fs = load_finding_set("minimal")
        s1 = next(f for f in fs.findings if f.label == "S1")
        flags = {r.condition.id: r.false_positive for r in s1.postconditions}
        assert flags == {"x1": False, "x2": True}

    def test_unknown_top_level_field(self):
        doc = json.dumps({"site": "x", "environment_facts": [], "findings": [], "extra": 1})
        with pytest.raises(SchemaViolation, match="unknown fields: extra"):
            parse_findings(doc)

    def test_missing_field_with_path(self):
        with pytest.raises(SchemaViolation, match=r"findings\[0\]"):
            parse_findings(_doc([{"uri": "/x"}]))

    def test_wrong_kind(self):
        with pytest.raises(SchemaViolation, match="'is_goal' must be bool"):
            parse_findings(_doc([_row(is_goal="yes")]))

    def test_duplicate_state_rejected(self):
        doc = _doc([_row(vuln="V", uri="/x"), _row(vuln="v", uri="/x/")])
        with pytest.raises(DuplicateState,
                           match=r"^findings\[1\]: same vulnerability and URI as findings\[0\]$"):
            parse_findings(doc)

    def test_uri_ending_in_a_decoded_control_character_is_rejected_not_merged(self):
        with pytest.raises(SchemaViolation) as caught:
            parse_findings(_doc([_row(vuln="v", uri="/a"), _row(vuln="v", uri="/a%0D")]))
        assert type(caught.value) is SchemaViolation
        assert str(caught.value) == (
            "findings[1]: percent-decoded path contains control characters: '/a%0D'")

    def test_uri_ending_in_a_non_ascii_space_is_its_own_state(self):
        fs = parse_findings(_doc([_row(vuln="v", uri=uri)
                                  for uri in ("/a", "/a\x85", "/a%C2%A0", "/a\u2028 ")]))
        assert {f.uri.canonical for f in fs.findings} == {"/a", "/a\x85", "/a\xa0", "/a\u2028"}
        assert len({f.id for f in fs.findings}) == 4

    def test_label_may_be_null_but_not_a_lone_surrogate(self):
        assert parse_findings(_doc([_row(label=None)])).findings[0].label is None
        with pytest.raises(SchemaViolation,
                           match=r"findings\[0\]: field 'label' contains a lone surrogate"):
            parse_findings(_doc([_row(label="\udc80")]))

    def test_findings_in_id_order(self):
        # The finding set keeps the document's order; the machine orders it.
        fs = load_finding_set("vulnweb")
        doc = json.loads((FIXTURES / "vulnweb" / "findings.json").read_text())
        assert [f.label for f in fs.findings] == [row["label"] for row in doc["findings"]]
        assert [f.id for f in fs.findings] != sorted(f.id for f in fs.findings)
        fsm = build_fsm(fs, load_tree("vulnweb"))
        assert [s.id for s in fsm.non_start_states] == sorted(f.id for f in fs.findings)

    def test_environment_facts_one_per_id_first_label_wins(self):
        # The finding set keeps every fact as written; the machine's start
        # state keeps one per id, the first label, in id order.
        fs = parse_findings(_doc(facts=["Zeta", "alpha", "ZETA"]))
        assert [(c.id, c.label) for c in fs.environment_facts] == [
            ("zeta", "Zeta"), ("alpha", "alpha"), ("zeta", "ZETA")]
        start = build_fsm(fs, parse_crawl_list("")).start
        assert [(r.condition.id, r.condition.label) for r in start.postconditions] == [
            ("alpha", "alpha"), ("zeta", "Zeta")]

    def test_user_action_flag_on_postcondition_rejected(self):
        doc = _doc([_row(posts=[{"condition": "c", "requires_user_action": True}])])
        with pytest.raises(UnknownAssumptionFlag):
            parse_findings(doc)

    def test_duplicate_condition_within_preconditions(self):
        doc = _doc([_row(pres=[{"condition": "Same"}, {"condition": "same "}])])
        with pytest.raises(SchemaViolation, match="duplicate precondition"):
            parse_findings(doc)

    def test_invalid_utf8_rejected(self):
        with pytest.raises(SchemaViolation, match="UTF-8"):
            parse_findings(b'{"site": "\xff"}')

    def test_invalid_utf8_after_a_byte_order_mark_names_its_file_position(self):
        with pytest.raises(SchemaViolation, match="byte 0xff in position 13"):
            parse_findings(b'\xef\xbb\xbf{"site": "\xff"}')

    def test_not_json(self):
        with pytest.raises(SchemaViolation, match="not valid JSON"):
            parse_findings("VULN\tURI")

    def test_unsatisfiable_precondition_warning(self):
        fs = load_finding_set("minimal")
        assert machine_of(fs).warnings == (
            "precondition 'x2' has no producing finding and no matching environment fact",
        )

    def test_user_action_preconditions_do_not_warn(self):
        doc = _doc([_row(pres=[{"condition": "user clicks", "requires_user_action": True}])])
        assert machine_of(parse_findings(doc)).warnings == ()

    def test_near_miss_punctuation_warning(self):
        doc = _doc([
            _row(vuln="A", uri="/a", posts=[{"condition": "weak password."}]),
            _row(vuln="B", uri="/b", pres=[{"condition": "weak password"}]),
        ])
        fs = parse_findings(doc)
        assert any("differ only in punctuation" in w for w in machine_of(fs).warnings)

    def test_environment_fact_may_coincide_with_postcondition(self):
        doc = _doc(
            [_row(posts=[{"condition": "apache 2.4 detected"}])],
            facts=["Apache 2.4 detected"],
        )
        fs = parse_findings(doc)
        assert fs.environment_facts[0].id == "apache 2.4 detected"


@pytest.mark.parametrize("kind,load", [
    ("findings", parse_findings), ("machine", fsm_from_json), ("report", report_from_json)])
def test_byte_order_mark_is_ignored(kind, load):
    """A leading byte-order mark is dropped from a document given as bytes
    and from one given as text; ``TestUriTree`` checks the crawl list."""
    data = CLI_INPUTS[kind][0].read_bytes()
    expected = load(data)
    assert load(b"\xef\xbb\xbf" + data) == expected
    assert load("\ufeff" + data.decode("utf-8")) == expected


@pytest.mark.parametrize("document", ["[]", "1", '"x"', "null", "true"])
@pytest.mark.parametrize("load", [parse_findings, fsm_from_json, report_from_json],
                         ids=lambda load: load.__name__)
def test_json_value_that_is_not_an_object_is_rejected(load, document):
    with pytest.raises(SchemaViolation) as caught:
        load(document)
    assert str(caught.value) == "top-level value must be an object"


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["minimal", "vulnweb", "teacher"])
    def test_parse_serialize_identity(self, name):
        fs = load_finding_set(name)
        assert parse_findings(serialize_findings(fs)) == fs

    def test_serialize_deterministic(self):
        fs = load_finding_set("vulnweb")
        assert serialize_findings(fs) == serialize_findings(fs)


def _vulnweb_object(label: str, *, false_positive: bool = False) -> dict:
    """The finding object of vulnweb state ``label``, every field spelled
    out; with ``false_positive`` its first postcondition is marked so."""
    state = next(f for f in load_finding_set("vulnweb").findings if f.label == label)
    obj = finding_entry(state)
    obj["postconditions"][0]["false_positive"] = false_positive
    return obj


#: Fields a machine state must spell out although a finding may omit them.
MACHINE_REQUIRED = {"preconditions", "postconditions", "is_goal",
                    "requires_user_action", "false_positive"}
DELETED = "deleted"


def _variants(obj: dict):
    """``(case, mutated copy, whether only the machine file rejects it)``:
    every nested entry retyped to each ``RETYPED`` value or deleted, and
    every ref's flag spelled as the other list's flag."""
    for i, (_, key) in enumerate(_entries(obj)):
        for value in [*RETYPED, DELETED]:
            copy = json.loads(json.dumps(obj))
            container, _ = list(_entries(copy))[i]
            if value == DELETED:
                del container[key]
            else:
                container[key] = value
            machine_only = ((value == DELETED and key in MACHINE_REQUIRED)
                            or (key == "label" and value is None))
            yield f"entry {i} ({key!r}) {value!r}", copy, machine_only
    flags = {"preconditions": ("requires_user_action", "false_positive"),
             "postconditions": ("false_positive", "requires_user_action")}
    for key, (flag, other) in flags.items():
        for j in range(len(obj[key])):
            copy = json.loads(json.dumps(obj))
            copy[key][j][other] = copy[key][j].pop(flag)
            yield f"{key}[{j}] flag spelled {other!r}", copy, False


def _load(load):
    """``(state, None)`` from ``load()``, or ``(None, (error type, message))``."""
    try:
        return load(), None
    except SchemaViolation as exc:
        return None, (type(exc), str(exc))


#: The base finding object of ``TestPinnedReaderMessages``, every field
#: spelled out and each ref list holding one entry.
PINNED_OBJECT = {"vulnerability": "V", "uri": "/x",
                 "preconditions": [{"condition": "c", "requires_user_action": False}],
                 "postconditions": [{"condition": "d", "false_positive": False}],
                 "is_goal": False, "source": "s", "label": "L"}

#: Per loader, ``(field, value, path, message)`` for the base object with
#: ``field`` set to ``value`` or deleted: the ``SchemaViolation`` the loader
#: raises, or ``(field, value, None)`` where the object loads. ``id`` and
#: ``is_start`` are read only in a machine file.
PINNED_READS = {
    "findings": [
        ("vulnerability", DELETED, "findings[0]", "missing required field 'vulnerability'"),
        ("vulnerability", 1, "findings[0]", "field 'vulnerability' must be str"),
        ("vulnerability", True, "findings[0]", "field 'vulnerability' must be str"),
        ("vulnerability", None, "findings[0]", "field 'vulnerability' must be str"),
        ("vulnerability", "\ud800", "findings[0]",
         "field 'vulnerability' contains a lone surrogate"),
        ("uri", DELETED, "findings[0]", "missing required field 'uri'"),
        ("uri", 1, "findings[0]", "field 'uri' must be str"),
        ("uri", True, "findings[0]", "field 'uri' must be str"),
        ("uri", None, "findings[0]", "field 'uri' must be str"),
        ("uri", "\ud800", "findings[0]", "field 'uri' contains a lone surrogate"),
        ("preconditions", DELETED, None),
        ("preconditions", 1, "findings[0]", "field 'preconditions' must be list"),
        ("preconditions", "x", "findings[0]", "field 'preconditions' must be list"),
        ("preconditions", None, "findings[0]", "field 'preconditions' must be list"),
        ("postconditions", DELETED, None),
        ("postconditions", 1, "findings[0]", "field 'postconditions' must be list"),
        ("postconditions", "x", "findings[0]", "field 'postconditions' must be list"),
        ("postconditions", None, "findings[0]", "field 'postconditions' must be list"),
        ("is_goal", DELETED, None),
        ("is_goal", 1, "findings[0]", "field 'is_goal' must be bool"),
        ("is_goal", "x", "findings[0]", "field 'is_goal' must be bool"),
        ("is_goal", None, "findings[0]", "field 'is_goal' must be bool"),
        ("source", DELETED, None),
        ("source", 1, "findings[0]", "field 'source' must be str"),
        ("source", True, "findings[0]", "field 'source' must be str"),
        ("source", None, "findings[0]", "field 'source' must be str"),
        ("source", "\ud800", "findings[0]", "field 'source' contains a lone surrogate"),
        ("label", DELETED, None),
        ("label", 1, "findings[0]", "field 'label' must be str"),
        ("label", True, "findings[0]", "field 'label' must be str"),
        ("label", None, None),
        ("label", "\ud800", "findings[0]", "field 'label' contains a lone surrogate"),
        ("preconditions[0].condition", DELETED, "findings[0].preconditions[0]",
         "missing required field 'condition'"),
        ("preconditions[0].condition", 1, "findings[0].preconditions[0]",
         "field 'condition' must be str"),
        ("preconditions[0].condition", True, "findings[0].preconditions[0]",
         "field 'condition' must be str"),
        ("preconditions[0].condition", None, "findings[0].preconditions[0]",
         "field 'condition' must be str"),
        ("preconditions[0].condition", "\ud800", "findings[0].preconditions[0]",
         "field 'condition' contains a lone surrogate"),
        ("preconditions[0].requires_user_action", DELETED, None),
        ("preconditions[0].requires_user_action", 1, "findings[0].preconditions[0]",
         "field 'requires_user_action' must be bool"),
        ("preconditions[0].requires_user_action", "x", "findings[0].preconditions[0]",
         "field 'requires_user_action' must be bool"),
        ("preconditions[0].requires_user_action", None, "findings[0].preconditions[0]",
         "field 'requires_user_action' must be bool"),
        ("postconditions[0].false_positive", DELETED, None),
        ("postconditions[0].false_positive", 1, "findings[0].postconditions[0]",
         "field 'false_positive' must be bool"),
        ("postconditions[0].false_positive", "x", "findings[0].postconditions[0]",
         "field 'false_positive' must be bool"),
        ("postconditions[0].false_positive", None, "findings[0].postconditions[0]",
         "field 'false_positive' must be bool"),
    ],
    "machine": [
        ("vulnerability", DELETED, "states[0]", "missing required field 'vulnerability'"),
        ("vulnerability", 1, "states[0]", "field 'vulnerability' must be str"),
        ("vulnerability", True, "states[0]", "field 'vulnerability' must be str"),
        ("vulnerability", None, "states[0]", "field 'vulnerability' must be str"),
        ("vulnerability", "\ud800", "states[0]",
         "field 'vulnerability' contains a lone surrogate"),
        ("uri", DELETED, "states[0]", "missing required field 'uri'"),
        ("uri", 1, "states[0]", "field 'uri' must be str"),
        ("uri", True, "states[0]", "field 'uri' must be str"),
        ("uri", None, "states[0]", "field 'uri' must be str"),
        ("uri", "\ud800", "states[0]", "field 'uri' contains a lone surrogate"),
        ("preconditions", DELETED, "states[0]", "missing required field 'preconditions'"),
        ("preconditions", 1, "states[0]", "field 'preconditions' must be list"),
        ("preconditions", "x", "states[0]", "field 'preconditions' must be list"),
        ("preconditions", None, "states[0]", "field 'preconditions' must be list"),
        ("postconditions", DELETED, "states[0]", "missing required field 'postconditions'"),
        ("postconditions", 1, "states[0]", "field 'postconditions' must be list"),
        ("postconditions", "x", "states[0]", "field 'postconditions' must be list"),
        ("postconditions", None, "states[0]", "field 'postconditions' must be list"),
        ("is_goal", DELETED, "states[0]", "missing required field 'is_goal'"),
        ("is_goal", 1, "states[0]", "field 'is_goal' must be bool"),
        ("is_goal", "x", "states[0]", "field 'is_goal' must be bool"),
        ("is_goal", None, "states[0]", "field 'is_goal' must be bool"),
        ("source", DELETED, None),
        ("source", 1, "states[0]", "field 'source' must be str"),
        ("source", True, "states[0]", "field 'source' must be str"),
        ("source", None, "states[0]", "field 'source' must be str"),
        ("source", "\ud800", "states[0]", "field 'source' contains a lone surrogate"),
        ("label", DELETED, None),
        ("label", 1, "states[0]", "field 'label' must be str"),
        ("label", True, "states[0]", "field 'label' must be str"),
        ("label", None, "states[0]", "field 'label' must be str"),
        ("label", "\ud800", "states[0]", "field 'label' contains a lone surrogate"),
        ("id", DELETED, "states[0]", "missing required field 'id'"),
        ("id", 1, "states[0]", "field 'id' must be str"),
        ("id", True, "states[0]", "field 'id' must be str"),
        ("id", None, "states[0]", "field 'id' must be str"),
        ("id", "\ud800", "states[0]", "field 'id' contains a lone surrogate"),
        ("is_start", DELETED, "states[0]", "missing required field 'is_start'"),
        ("is_start", 1, "states[0]", "field 'is_start' must be bool"),
        ("is_start", "x", "states[0]", "field 'is_start' must be bool"),
        ("is_start", None, "states[0]", "field 'is_start' must be bool"),
        ("preconditions[0].condition", DELETED, "states[0].preconditions[0]",
         "missing required field 'condition'"),
        ("preconditions[0].condition", 1, "states[0].preconditions[0]",
         "field 'condition' must be str"),
        ("preconditions[0].condition", True, "states[0].preconditions[0]",
         "field 'condition' must be str"),
        ("preconditions[0].condition", None, "states[0].preconditions[0]",
         "field 'condition' must be str"),
        ("preconditions[0].condition", "\ud800", "states[0].preconditions[0]",
         "field 'condition' contains a lone surrogate"),
        ("preconditions[0].requires_user_action", DELETED, "states[0].preconditions[0]",
         "missing required field 'requires_user_action'"),
        ("preconditions[0].requires_user_action", 1, "states[0].preconditions[0]",
         "field 'requires_user_action' must be bool"),
        ("preconditions[0].requires_user_action", "x", "states[0].preconditions[0]",
         "field 'requires_user_action' must be bool"),
        ("preconditions[0].requires_user_action", None, "states[0].preconditions[0]",
         "field 'requires_user_action' must be bool"),
        ("postconditions[0].false_positive", DELETED, "states[0].postconditions[0]",
         "missing required field 'false_positive'"),
        ("postconditions[0].false_positive", 1, "states[0].postconditions[0]",
         "field 'false_positive' must be bool"),
        ("postconditions[0].false_positive", "x", "states[0].postconditions[0]",
         "field 'false_positive' must be bool"),
        ("postconditions[0].false_positive", None, "states[0].postconditions[0]",
         "field 'false_positive' must be bool"),
    ],
}

#: ``(loader, field, value, path, message)`` for the top-level fields read
#: by ``_get`` with an exact kind, including a bool where an int is wanted.
PINNED_DOCUMENT_READS = [
    ("machine", "format_version", True, "$", "field 'format_version' must be int"),
    ("machine", "format_version", 2.0, "$", "field 'format_version' must be int"),
    ("machine", "format_version", "2", "$", "field 'format_version' must be int"),
    ("machine", "format_version", None, "$", "field 'format_version' must be int"),
    ("machine", "format_version", DELETED, "$", "missing required field 'format_version'"),
    ("machine", "format_version", 1, "format_version",
     "unsupported format_version 1; expected 2 (rebuild the machine with 'vulnchain build')"),
    ("findings", "site", True, "$", "field 'site' must be str"),
    ("findings", "site", 1, "$", "field 'site' must be str"),
    ("findings", "site", None, "$", "field 'site' must be str"),
    ("findings", "site", "\ud800", "$", "field 'site' contains a lone surrogate"),
]


def _pinned_input(loader: str, field: str, value) -> str:
    """The one-finding input of ``loader`` whose object is
    ``PINNED_OBJECT`` with ``field`` (``key`` or ``key[0].flag``) set to
    ``value`` or deleted; a machine state keeps the base object's id."""
    obj = json.loads(json.dumps(PINNED_OBJECT))
    if loader == "machine":
        obj.update(id=parse_findings(_doc([PINNED_OBJECT])).findings[0].id, is_start=False)
    container, key = obj, field
    if "[0]." in field:
        name, key = field.split("[0].")
        container = obj[name][0]
    if value == DELETED:
        del container[key]
    else:
        container[key] = value
    if loader == "findings":
        return _doc([obj])
    start = json.loads(fsm_to_json(Fsm(site="", findings=(), facts=())))["states"][0]
    return json.dumps({"format_version": FSM_FORMAT_VERSION, "site": "test",
                       "environment_facts": [], "diagnostics": [], "states": [obj, start]})


def _raised(load, document):
    """``(path, message)`` of the ``SchemaViolation`` that ``load(document)``
    raises, its exact type checked, or ``None`` if it loads."""
    try:
        load(document)
    except SchemaViolation as exc:
        assert type(exc) is SchemaViolation
        message = str(exc)
        if exc.path is not None:
            assert message.startswith(f"{exc.path}: ")
            message = message[len(exc.path) + 2:]
        return exc.path, message
    return None


class TestPinnedReaderMessages:
    """Every field of a finding object, and a machine state's ``id`` and
    ``is_start``, given absent, ``1``, a value of the wrong kind, ``null``
    and, for a str, a lone surrogate: each loader's exact error type, path
    and message, or that the object loads."""

    @pytest.mark.parametrize("loader,field,value,expected", [
        (loader, row[0], row[1], row[2:] if row[2] is not None else None)
        for loader, rows in PINNED_READS.items() for row in rows])
    def test_finding_object_reads(self, loader, field, value, expected):
        load = {"findings": parse_findings, "machine": fsm_from_json}[loader]
        assert _raised(load, _pinned_input(loader, field, value)) == expected

    @pytest.mark.parametrize("loader,field,value,path,message", PINNED_DOCUMENT_READS)
    def test_document_field_reads(self, loader, field, value, path, message):
        if loader == "findings":
            doc = json.loads(_doc())
            load = parse_findings
        else:
            doc = {"format_version": FSM_FORMAT_VERSION, "site": "test",
                   "environment_facts": [], "diagnostics": [], "states": []}
            load = fsm_from_json
        if value == DELETED:
            del doc[field]
        else:
            doc[field] = value
        assert _raised(load, json.dumps(doc)) == (path, message)


class TestOneReaderForFindingsAndMachineStates:
    """A finding object reads the same in a findings document and as a
    machine state: the same state, or the same error apart from the
    ``findings[0]``/``states[0]`` prefix. Only the machine file's extra
    rules (every field spelled out, no ``null`` label) tell them apart."""

    @pytest.mark.parametrize("obj", [_vulnweb_object("S6"),
                                     _vulnweb_object("S10", false_positive=True)],
                             ids=["user action", "false positive"])
    def test_both_loaders_agree_on_every_mutation(self, obj):
        start = json.loads(fsm_to_json(Fsm(site="", findings=(), facts=())))["states"][0]
        original_id = parse_findings(_doc([obj])).findings[0].id
        disagreements = []
        for case, variant, machine_only in _variants(obj):
            found, found_error = _load(lambda: parse_findings(_doc([variant])).findings[0])
            entry = dict(variant, id=found.id if found else original_id, is_start=False)
            machine = {"format_version": FSM_FORMAT_VERSION, "site": "test",
                       "environment_facts": [], "diagnostics": [], "states": [entry, start]}
            loaded, loaded_error = _load(
                lambda: fsm_from_json(json.dumps(machine)).non_start_states[0])
            if found_error is not None:
                kind, message = found_error
                found_error = kind, message.replace("findings[0]", "states[0]", 1)
            if machine_only:
                agree = found is not None and loaded_error is not None
            else:
                agree = (found, found_error) == (loaded, loaded_error)
            if not agree:
                disagreements.append(f"{case}: {found_error or found} / {loaded_error or loaded}")
        assert disagreements == []


#: What a finding object reads for a field it omits.
ABSENT_READS_AS = {"preconditions": [], "postconditions": [], "is_goal": False, "source": "",
                   "label": None, "requires_user_action": False, "false_positive": False}

#: Input kind -> its loader and the fields it may find absent; every other
#: field of an object is required.
LOADERS = {
    "findings": (parse_findings, set(ABSENT_READS_AS)),
    "machine": (fsm_from_json, {"source", "label"}),
    "report": (report_from_json, set()),
}


def _object_fields(value, path="$", route=()):
    """``(JSON path, route, key)`` for every field of every object nested
    in ``value``; ``route`` leads from the top to the field's object."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        if isinstance(value, dict):
            yield path, route, key
            child_path = key if path == "$" else f"{path}.{key}"
        else:
            child_path = f"{path}[{key}]"
        if isinstance(child, (dict, list)):
            yield from _object_fields(child, child_path, (*route, key))


class TestAbsentFields:
    """Each field of each input, deleted from the vulnweb input of the CLI:
    a required one is named with its object's path, and an optional one
    reads as its default."""

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_every_field_deleted(self, kind):
        load, optional = LOADERS[kind]
        golden = json.loads(CLI_INPUTS[kind][0].read_bytes())
        for path, route, key in _object_fields(golden):
            doc = json.loads(json.dumps(golden))
            obj = doc
            for step in route:
                obj = obj[step]
            del obj[key]
            text = json.dumps(doc)
            if path == "labels":  # state id -> label, not fields
                load(text)
            elif kind == "machine" and path.startswith("states[0]") and key != "is_start":
                with pytest.raises(SchemaViolation, match=r"^states\[0\]: start entry does "
                                                          "not match the start state"):
                    load(text)
            elif key not in optional:
                expected = f"{path}: missing required field {key!r}"
                with pytest.raises(SchemaViolation, match=f"^{re.escape(expected)}$"):
                    load(text)
            elif kind == "findings":
                obj[key] = ABSENT_READS_AS[key]
                assert load(text) == load(json.dumps(doc))
            else:
                state = load(text).by_id[obj["id"]]
                original = load(json.dumps(golden)).by_id[obj["id"]]
                assert state == replace(original, **{key: ABSENT_READS_AS[key]})


class TestMapFindingsToUris:
    """Findings on URIs the crawl does not list are kept as states and warned
    about in the machine's diagnostics."""

    def test_vulnweb_tally(self, vulnweb_findings, vulnweb_tree):
        fsm = build_fsm(vulnweb_findings, vulnweb_tree)
        counts = Counter(s.uri.canonical for s in fsm.non_start_states)
        assert counts == {
            "/login.php": 4,   # S1, S5, S6, S7
            "/index.php": 1,
            "/auth.php": 2,
            "*": 1,
            "/Flash/add fla": 2,
        }
        assert fsm.diagnostics == ()

    def test_empty_finding_set(self):
        fsm = build_fsm(parse_findings(_doc()), load_tree("minimal"))
        assert fsm.non_start_states == ()
        assert fsm.diagnostics == ()

    def test_uri_absent_from_tree_warns_but_keeps(self):
        fsm = build_fsm(parse_findings(_doc([_row(uri="/ghost.php")])), load_tree("minimal"))
        assert [s.uri.canonical for s in fsm.non_start_states] == ["/ghost.php"]
        assert fsm.diagnostics == ("no crawled resource matches finding URI '/ghost.php'",)

    def test_finding_on_a_crawled_directory_does_not_warn(self):
        fs = parse_findings(_doc([_row(uri="/Flash")]))
        assert build_fsm(fs, parse_crawl_list("/Flash/add fla\n")).diagnostics == ()

    def test_no_findings_lost_or_duplicated(self, vulnweb_findings, vulnweb_tree):
        fsm = build_fsm(vulnweb_findings, vulnweb_tree)
        assert len(fsm.non_start_states) == len(vulnweb_findings.findings)
        assert {s.id for s in fsm.non_start_states} == {f.id for f in vulnweb_findings.findings}

    def test_warnings_deterministic(self, vulnweb_findings):
        a = build_fsm(vulnweb_findings, load_tree("minimal"))
        b = build_fsm(vulnweb_findings, load_tree("minimal"))
        assert a.diagnostics == b.diagnostics and a.diagnostics != ()
