"""Every input file of the CLI, fuzzed through ``cli_main``, and the
one-pass read of a finding object against the checked steps.

Each example is one input (the findings JSON, the crawl list, the machine
file or the report), given either as arbitrary bytes or as a golden input
with one mutation: an entry deleted, a value retyped, a list entry
repeated, the file truncated, or a UTF-8 byte-order mark put before it.
Every command that reads the input must exit 0, or exit 1 with an error
that names the file. Exit 2 is a bug.

A findings document or machine file, mutated so or one of the random
corpus, must load to the same bytes, or fail with the same error type,
path and message, as when every finding object goes through the checked
steps.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from vulnchain import Fsm, SchemaViolation, fsm_from_json, fsm_to_json, ingest, parse_findings
from vulnchain.cli import cli_main

from tests.helpers import CLI_INPUTS as INPUTS
from tests.helpers import machine_of, random_finding_set, serialize_findings

#: Replacement values of a retyped entry; a lone surrogate is valid JSON
#: but cannot be written as UTF-8.
RETYPED = ["\ud800", None, True, 2.0, -1, "", "x", [], {}]


def _entries(value):
    """``(container, key)`` for every entry nested anywhere in ``value``."""
    if isinstance(value, (dict, list)):
        for key in list(value) if isinstance(value, dict) else range(len(value)):
            yield value, key
            yield from _entries(value[key])


@st.composite
def inputs(draw, kinds=tuple(sorted(INPUTS)),
           hows=("retype", "delete", "repeat", "truncate", "bom", "bytes")):
    """An input kind and the bytes of a fuzzed file of that kind."""
    kind = draw(st.sampled_from(kinds))
    golden = INPUTS[kind][0].read_bytes()
    how = draw(st.sampled_from(hows))
    if how == "bytes":
        return kind, draw(st.binary(max_size=64))
    if how == "bom":
        return kind, b"\xef\xbb\xbf" + golden
    if how == "truncate":
        return kind, golden[:draw(st.integers(0, len(golden) - 1))]

    # The crawl list is mutated as its list of lines.
    doc = golden.decode().splitlines() if kind == "crawl" else json.loads(golden)
    entries = [(c, k) for c, k in _entries(doc) if how != "repeat" or isinstance(c, list)]
    container, key = draw(st.sampled_from(entries))
    if how == "delete":
        del container[key]
    elif how == "repeat":
        container.insert(key, container[key])
    else:
        container[key] = draw(st.sampled_from(RETYPED))
    if kind == "crawl":
        lines = (v if isinstance(v, str) else json.dumps(v) for v in doc)
        return kind, "\n".join(lines).encode("utf-8", "surrogatepass")
    return kind, json.dumps(doc).encode()


@given(inputs())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_every_input_exits_0_or_1_naming_the_file(case):
    kind, data = case
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / INPUTS[kind][0].name
        path.write_bytes(data)
        for argv in INPUTS[kind][1]:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([a.format(input=path, out=Path(work) / "out") for a in argv])
            ok = code == 0 or (code == 1 and err.getvalue().startswith(f"error: {path}: "))
            assert ok, (argv[0], code, err.getvalue())


@st.composite
def corpus_inputs(draw):
    """A machine file or findings document of one random corpus machine."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    finding_set = random_finding_set(rng, punctuation_variants=draw(st.booleans()),
                                     hostile_text=draw(st.booleans()))
    if draw(st.booleans()):
        return "machine", fsm_to_json(machine_of(finding_set)).encode()
    return "findings", serialize_findings(finding_set).encode()


def _outcome(kind, data):
    """The loaded document written back, or the error's type, path and
    message."""
    try:
        loaded = {"findings": parse_findings, "machine": fsm_from_json}[kind](data)
    except SchemaViolation as exc:
        return type(exc), exc.path, str(exc)
    return fsm_to_json(loaded) if isinstance(loaded, Fsm) else serialize_findings(loaded)


@given(st.one_of(inputs(kinds=("findings", "machine"), hows=("retype", "delete", "repeat")),
                 corpus_inputs()))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_one_pass_read_matches_the_checked_steps(case):
    kind, data = case
    with mock.patch.object(ingest, "_read_at_once", lambda *args: None):
        checked = _outcome(kind, data)
    assert _outcome(kind, data) == checked
