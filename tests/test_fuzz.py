"""Random input at the command line's boundary: documents that are any JSON
value, formula strings of any shape, and argument lists of any make-up.
Whatever comes in, `cli.main` returns 0, 1 or 2, nothing escapes it, and
an exit status of 2 comes with an `epk: error:` line or a usage message."""

import io
import json
import os
import shutil
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epk import cli
from helpers import fixture_path

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(argv, out=out, err=err)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        text = err.getvalue()
        assert text.startswith("epk: error:") or text.startswith("usage:"), (argv, text)
    return code


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20)

# Names that are states, agents or propositions of a small document, and
# some that are none of these or are malformed.
names = st.sampled_from(["1", "2", "3", "1@act", "2@shift", "1@bogus", "", "a", "b", "p",
                         "a b", "9"])
name_lists = st.lists(names, max_size=4) | json_values
pairs = st.lists(st.lists(names, min_size=0, max_size=3) | json_values, max_size=5)
adjacency = st.dictionaries(names, st.lists(names, max_size=4) | json_values, max_size=4)
documents = st.fixed_dictionaries(
    {"states": name_lists, "agents": name_lists, "props": name_lists,
     "relations": st.dictionaries(names, pairs | adjacency, max_size=3) | json_values,
     "valuation": st.dictionaries(names, name_lists, max_size=2) | json_values,
     "locals": st.dictionaries(names, name_lists, max_size=3) | json_values},
    optional={"meta": st.dictionaries(st.text(max_size=4), st.text(max_size=4) | json_values,
                                      max_size=2) | json_values})

COMMANDS = [["show"], ["validate"], ["validate", "--mode", "local"],
            ["check", "--global", "p"], ["check", "--agent", "a", "B[a] C[a,b]"],
            ["check", "--state", "1", "P[a,b]"], ["update", "offline", "a"],
            ["update", "online", "z", "--locals", "1"],
            ["update", "lie-offline", "--liar", "a", "--target", "b"],
            ["update", "lie-online", "--liar", "a", "--new", "z", "--locals", "1"]]


class TestDocuments:
    @given(st.one_of(json_values, documents), st.sampled_from(COMMANDS))
    @FUZZ
    def test_any_json_document(self, doc, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out = os.path.join(tmp, "out.json")
            argv = [path, *command] + (["-o", out] if command[0] == "update" else [])
            if run(argv) == 0 and command[0] == "update":
                assert run([out, "show"]) == 0

    @given(st.binary(max_size=64))
    @FUZZ
    def test_any_bytes(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.json")
            with open(path, "wb") as fh:
                fh.write(data)
            run([path, "show"])


class TestFormulas:
    @given(st.text(alphabet="~&|()[],->BCPpqmfgz_1 ", max_size=40) | st.text(max_size=20),
           st.sampled_from([["--global"], ["--agent", "m"], ["--state", "3"]]))
    @FUZZ
    def test_any_formula_text(self, text, scope):
        run([fixture_path("figure2"), "check", *scope, text])


TOKENS = ["validate", "check", "update", "offline", "online", "lie-offline", "lie-online",
          "export-dot", "show", "--mode", "global", "local", "--require-kd45", "--state",
          "--agent", "--global", "--expect", "true", "false", "--liar", "--target", "--new",
          "--locals", "--in-place", "-o", "OUT", "m", "f", "g", "z", "1", "3", "1@act", "9",
          "p", "~P[m,g]", "B[m] p", "C[f,g] &", "-h", "--help", "--bogus"]


class TestArguments:
    @given(st.lists(st.sampled_from(TOKENS), max_size=10))
    @FUZZ
    def test_any_argument_list(self, tokens):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.json")
            shutil.copyfile(fixture_path("figure2"), path)
            out = os.path.join(tmp, "out.json")
            # "-o" may take any token as a relative path: keep it in tmp.
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                run([path] + [out if t == "OUT" else t for t in tokens])
            finally:
                os.chdir(cwd)
