"""Crawl-list and findings-document parsing, validation, and round trips."""

import json
from collections import Counter

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
from vulnchain.ingest import _finding_entry
from vulnchain.report import FSM_FORMAT_VERSION

from tests.helpers import CLI_INPUTS, load_finding_set, load_tree, serialize_findings
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

    def test_malformed_line_number_reported(self):
        with pytest.raises(MalformedUri, match="line 3"):
            parse_crawl_list("/ok\n# fine\n/bad\x00uri\n")
        # Only CR LF, CR and LF end a line; a trailing Unicode line boundary
        # is stripped with the line's other whitespace.
        for char in "\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e":
            with pytest.raises(MalformedUri, match=r"^line 2: "):
                parse_crawl_list(f"/a{char}\n/b\x00\n")
            with pytest.raises(MalformedUri, match=r"^line 4: "):
                parse_crawl_list(f"/a{char}\r\n/b\r/c{char}\n/d\x00\n")


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
        assert build_fsm(fs).warnings == ()

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

    def test_label_may_be_null_but_not_a_lone_surrogate(self):
        assert parse_findings(_doc([_row(label=None)])).findings[0].label is None
        with pytest.raises(SchemaViolation,
                           match=r"findings\[0\]: field 'label' contains a lone surrogate"):
            parse_findings(_doc([_row(label="\udc80")]))

    def test_findings_in_id_order(self):
        fs = load_finding_set("vulnweb")
        assert [f.id for f in fs.findings] == sorted(f.id for f in fs.findings)

    def test_environment_facts_one_per_id_first_label_wins(self):
        fs = parse_findings(_doc(facts=["Zeta", "alpha", "ZETA"]))
        assert [(c.id, c.label) for c in fs.environment_facts] == [
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
        assert build_fsm(fs).warnings == (
            "precondition 'x2' has no producing finding and no matching environment fact",
        )

    def test_user_action_preconditions_do_not_warn(self):
        doc = _doc([_row(pres=[{"condition": "user clicks", "requires_user_action": True}])])
        assert build_fsm(parse_findings(doc)).warnings == ()

    def test_near_miss_punctuation_warning(self):
        doc = _doc([
            _row(vuln="A", uri="/a", posts=[{"condition": "weak password."}]),
            _row(vuln="B", uri="/b", pres=[{"condition": "weak password"}]),
        ])
        fs = parse_findings(doc)
        assert any("differ only in punctuation" in w for w in build_fsm(fs).warnings)

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
    obj = _finding_entry(state)
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
