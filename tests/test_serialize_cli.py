import json
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from epk import (DocumentError, KripkeModel, ModelError, StateId, doc_to_model, dumps_dot,
                 dumps_model, export_dot, lie_offline, lie_online, load_model, save_model,
                 serialize, update_offline, update_online)
from epk import cli
from helpers import figure2, fixture_path, random_sparse_model, run_cli
from test_fuzz import json_values


def S(name):
    return StateId.parse(name)


def as_pairs(doc):
    """`doc` with every relation written as a list of [s, t] pairs, the
    older form of a relation."""
    return {**doc, "relations": {a: [[s, t] for s, targets in rel.items() for t in targets]
                                 for a, rel in doc["relations"].items()}}


FIXTURES = ("figure2", "figure2_minus_g", "cube3", "gruffalo")


@st.composite
def shaped_documents(draw):
    """Documents of the schema's shapes, each relation a map or a pair
    list, whose names are now and then undeclared or malformed, whose
    fields now and then miss an agent or a proposition, and one of whose
    fields, `meta` included, is now and then any JSON value."""
    now_and_then = st.sampled_from([False] * 9 + [True])
    states = draw(st.lists(st.sampled_from(["1", "2", "3", "1@act", "2@shift", "3@act@shift"] * 4
                                           + ["1@bogus"]), max_size=6, unique=True))
    if states and draw(now_and_then):
        states.append(states[0])  # listed twice
    named = st.sampled_from(states * 8 + ["9"])
    agents = draw(st.lists(st.sampled_from(["a", "b", "c"] * 4 + ["c d"]), min_size=1,
                           max_size=3, unique=True))
    props = draw(st.lists(st.sampled_from(["p", "q"]), max_size=2, unique=True))
    names = st.lists(named, max_size=3)
    relation = (st.dictionaries(named, names, max_size=4)
                | st.lists(st.lists(named, min_size=2, max_size=2), max_size=6))
    doc = {"states": states, "agents": agents, "props": props,
           "relations": {a: draw(relation) for a in agents},
           "valuation": {p: draw(names) for p in props},
           "locals": {a: [] if draw(now_and_then) else draw(st.lists(named, min_size=1,
                                                                      max_size=3))
                      for a in agents},
           "meta": draw(st.dictionaries(st.sampled_from(["name", "x"]), st.text(max_size=3)))}
    if draw(now_and_then):
        field = draw(st.sampled_from(["relations", "valuation", "locals"]))
        doc[field] = dict(list(doc[field].items())[1:])
    if draw(now_and_then):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(json_values)
    return doc


class TestDocuments:
    def test_figure2_fixture_matches_construction(self):
        assert load_model(fixture_path("figure2")) == figure2()
        loaded = load_model(fixture_path("figure2"))
        assert loaded.relations["f"] == {(S("1"), S("3")), (S("2"), S("3")), (S("3"), S("3"))}

    def test_all_fixtures_load(self):
        for name in FIXTURES:
            load_model(fixture_path(name))

    def test_undeclared_state_in_edge(self):
        doc = json.loads(Path(fixture_path("figure2")).read_text())
        pairs = as_pairs(doc)
        doc["relations"]["g"]["4"] = ["4"]
        with pytest.raises(DocumentError, match="4"):
            doc_to_model(doc)
        pairs["relations"]["g"].append(["4", "4"])
        with pytest.raises(DocumentError, match="4"):
            doc_to_model(pairs)

    def test_fixtures_read_as_pair_lists(self):
        for name in FIXTURES:
            doc = json.loads(Path(fixture_path(name)).read_text())
            assert all(isinstance(rel, dict) for rel in doc["relations"].values())
            assert doc_to_model(as_pairs(doc)) == load_model(fixture_path(name))

    @pytest.mark.parametrize("relation, fault", [
        ({"1": "12"}, "relations.a.1 must be a list"),
        ({"1": ["1", 2]}, "relations.a.1 must be a list"),
        ({"1": {"2": []}}, "relations.a.1 must be a list"),
        ({"3": ["1"]}, "relations.a uses undeclared state 3"),
        ({"1": ["2", "3"]}, "relations.a uses undeclared state 3"),
    ], ids=["string", "non-string", "object", "undeclared-source", "undeclared-target"])
    def test_bad_adjacency_maps_are_rejected(self, tmp_path, relation, fault):
        doc = {"states": ["1", "2"], "agents": ["a"], "props": [], "relations": {"a": relation},
               "valuation": {}, "locals": {"a": ["1"]}}
        with pytest.raises(DocumentError, match=fault):
            doc_to_model(doc)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, _, err = run_cli(str(p), "show")
        assert code == 2 and err.startswith("epk: error:") and "relations.a" in err

    def test_empty_target_list_is_read_and_not_written(self):
        doc = {"states": ["1", "2"], "agents": ["a"], "props": [],
               "relations": {"a": {"1": [], "2": ["1"]}}, "valuation": {}, "locals": {"a": ["1"]}}
        m = doc_to_model(doc)
        assert set(m.relations["a"]) == {(S("2"), S("1"))}
        assert oracles.oracle_doc(m)["relations"] == {"a": {"2": ["1"]}}

    @pytest.mark.parametrize("text, key", [
        ('{"states": ["1"], "agents": ["a"], "props": [], "relations": {"a": [["1", "2"]]},'
         ' "valuation": {}, "locals": {"a": ["1"]}, "states": ["1", "2"]}', "states"),
        ('{"states": ["1", "2"], "agents": ["a"], "props": [],'
         ' "relations": {"a": [["1", "2"]], "a": []}, "valuation": {}, "locals": {"a": ["1"]}}',
         "a"),
        ('{"states": ["1", "2"], "agents": ["a"], "props": [],'
         ' "relations": {"a": {"1": ["2"], "2": ["1"], "1": []}}, "valuation": {},'
         ' "locals": {"a": ["1"]}}', "1"),
    ], ids=["top-level", "agent", "source"])
    def test_duplicate_keys_are_rejected(self, tmp_path, text, key):
        p = tmp_path / "dup.json"
        p.write_text(text)
        with pytest.raises(DocumentError, match=f'duplicate key "{key}"'):
            load_model(str(p))
        code, out, err = run_cli(str(p), "show")
        assert (code, out) == (2, "") and err.startswith("epk: error:")

    def test_missing_key(self):
        with pytest.raises(DocumentError, match="locals"):
            doc_to_model({"states": [], "agents": [], "props": [],
                          "relations": {}, "valuation": {}})

    def test_one_element_relation_pair_is_rejected(self, tmp_path):
        doc = {"states": ["1"], "agents": ["a"], "props": [], "relations": {"a": [["1"]]},
               "valuation": {}, "locals": {"a": ["1"]}}
        with pytest.raises(DocumentError, match=r"relations\.a\[0\]"):
            doc_to_model(doc)
        p = tmp_path / "short.json"
        p.write_text(json.dumps(doc))
        code, _, err = run_cli(str(p), "validate")
        assert code == 2 and err.startswith("epk: error:")

    def test_string_for_states_is_rejected(self, tmp_path):
        doc = {"states": "12", "agents": ["a"], "props": [], "relations": {"a": [["1", "2"]]},
               "valuation": {}, "locals": {"a": ["1"]}}
        with pytest.raises(DocumentError, match="states must be a list of strings"):
            doc_to_model(doc)
        p = tmp_path / "string.json"
        p.write_text(json.dumps(doc))
        code, _, err = run_cli(str(p), "validate")
        assert code == 2 and err.startswith("epk: error:")

    @pytest.mark.parametrize("key, value", [
        ("agents", "a"),
        ("props", [1]),
        ("relations", [["1", "1"]]),
        ("relations", {"a": "11"}),
        ("relations", {"a": [["1", "1", "1"]]}),
        ("relations", {"a": [["1", 1]]}),
        ("relations", {"a": ["11"]}),
        ("valuation", {"p": "1"}),
        ("valuation", []),
        ("locals", {"a": [None]}),
        ("meta", {"name": 3}),
        ("meta", "figure2"),
    ])
    def test_bad_shapes_are_rejected(self, key, value):
        doc = {"states": ["1"], "agents": ["a"], "props": ["p"], "relations": {"a": [["1", "1"]]},
               "valuation": {"p": ["1"]}, "locals": {"a": ["1"]}}
        doc[key] = value
        with pytest.raises(DocumentError, match=key):
            doc_to_model(doc)

    def test_bad_json_reports_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\n  broken\n}")
        with pytest.raises(DocumentError, match="line 2"):
            load_model(str(p))

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",                               # not UTF-8
        b"[" * 100000 + b"]" * 100000,               # nested past the parser's stack
        b'{"states": ' + b"1" * 5000 + b"}",          # an integer too long to convert
    ], ids=["encoding", "nesting", "long-integer"])
    def test_unreadable_json_is_a_document_error(self, tmp_path, content):
        p = tmp_path / "bad.json"
        p.write_bytes(content)
        with pytest.raises(DocumentError, match="bad.json"):
            load_model(str(p))
        code, out, err = run_cli(str(p), "show")
        assert (code, out) == (2, "") and err.startswith("epk: error:")

    def test_roundtrip_is_canonical(self, tmp_path):
        p = tmp_path / "m.json"
        save_model(figure2(), str(p))
        first = p.read_bytes()
        save_model(load_model(str(p)), str(p))
        assert p.read_bytes() == first

    def test_fixture_files_are_canonical(self):
        for name in FIXTURES:
            path = fixture_path(name)
            on_disk = Path(path).read_bytes()
            assert dumps_model(load_model(path)).encode() == on_disk

    def test_names_are_written_in_name_order(self, tmp_path):
        # The states are numbered 1, 1@act, 10, 2@shift, but their names
        # sort as 1, 10, 1@act, 2@shift: the sources, each target list and
        # every other list of names are written in name order.
        names = ["2@shift", "10", "1@act", "1"]
        m = KripkeModel.build(
            states=names, agents=["a", "b"], props=["p"],
            relations={"a": {s: names for s in names},
                       "b": [("10", "1@act"), ("1@act", "2@shift"), ("1@act", "10"),
                             ("2@shift", "1")]},
            valuation={"p": ["1@act", "10"]}, locals={"a": names, "b": ["1@act", "10", "1"]},
            meta={"z": "1", "a": "2"})
        text = json.dumps(oracles.oracle_doc(m), indent=2, sort_keys=True) + "\n"
        assert dumps_model(m) == text and '"1",\n    "10",\n    "1@act"' in text
        save_model(m, str(tmp_path / "m.json"))
        assert (tmp_path / "m.json").read_text(encoding="utf-8") == text

    @given(st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_dumps_writes_the_bytes_of_json_dumps(self, seed):
        # Names that sort differently as names and as states, that need
        # escaping, or that are not ASCII; empty lists; now and then no
        # agents, or no states (and so no agents); meta whose keys and
        # values need escaping and whose keys need sorting.
        rng = random.Random(seed)
        pool = ["1", "10", "2", "1 x", "a!", 'q"t', "back\\slash", "tab\t", "\u00e9",
                "\u2603", "1@act", "10@shift", "2@act@shift"]
        names = rng.sample(pool, rng.randint(0, len(pool)))
        agents = rng.sample(["a", "b", "c_1"], rng.randint(0, 3) if names else 0)
        props = rng.sample(["p", "q"], rng.randint(0, 2))
        model = KripkeModel.build(
            states=names, agents=agents, props=props,
            relations={a: [(s, t) for s in names for t in names if rng.random() < 0.3]
                       for a in agents},
            valuation={p: [s for s in names if rng.random() < 0.5] for p in props},
            locals={a: rng.sample(names, rng.randint(1, len(names))) for a in agents},
            meta=rng.choice([{}, {"name": "x\ny", "\u00fc": ""},
                             {"z\\": 'say "hi"', "a": "tab\t\u2603", "Z": ""}]))
        expected = json.dumps(oracles.oracle_doc(model), indent=2, sort_keys=True) + "\n"
        assert dumps_model(model) == expected

    @given(shaped_documents())
    @settings(max_examples=300, deadline=None)
    def test_documents_read_as_build_reads_their_fields(self, doc):
        # Loading leaves every field to `build`: a model built alike, or
        # `build`'s message, and no other exception from either.
        try:
            built = KripkeModel.build(**doc).index
        except ModelError as e:
            with pytest.raises(DocumentError) as refused:
                doc_to_model(doc)
            assert str(refused.value) == str(e)
            return
        loaded = doc_to_model(doc).index
        assert ((loaded.order, loaded.rows, loaded.valuation, loaded.locals)
                == (built.order, built.rows, built.valuation, built.locals))

    @pytest.mark.parametrize("key, names, message", [
        ("states", ["1", "2", "1@act", "2", "1"], "state 2 is listed twice"),
        ("agents", ["i", "j", "i"], "agent i is listed twice"),
        ("props", ["p", "q", "q", "p"], "proposition q is listed twice"),
    ])
    def test_a_name_listed_twice_is_refused(self, tmp_path, key, names, message):
        doc = {"states": ["1", "2", "1@act"], "agents": ["i", "j"], "props": ["p", "q"],
               "relations": {"i": {"1": ["2"]}, "j": {}}, "valuation": {"p": ["1"], "q": []},
               "locals": {"i": ["1"], "j": ["2"]}, key: names}
        with pytest.raises(ModelError) as refused:
            KripkeModel.build(**doc)
        assert str(refused.value) == message
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DocumentError) as refused:
            load_model(str(path))
        assert str(refused.value) == f"{path}: {message}"

    def test_a_state_listed_twice_exits_2(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**json.loads(Path(fixture_path("figure2")).read_text()),
                                    "states": ["1", "1", "2"]}))
        code, out, err = run_cli(str(path), "show")
        assert (code, out) == (2, "")
        assert err.startswith("epk: error:") and "state 1 is listed twice" in err

    @pytest.mark.parametrize("key, name", [("agents", "1"), ("agents", "é"), ("props", "2p"),
                                           ("props", "p-q"), ("props", "ſ")])
    def test_names_no_formula_can_spell_are_refused(self, tmp_path, key, name):
        # No formula can spell these names, so no `check` could ask about them.
        agent, prop = (name, "p") if key == "agents" else ("i", name)
        doc = {"states": ["1"], "agents": [agent], "props": [prop], "relations": {agent: {}},
               "valuation": {prop: ["1"]}, "locals": {agent: ["1"]}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        what = "agent" if key == "agents" else "proposition"
        with pytest.raises(DocumentError, match=f"bad {what} name"):
            load_model(str(path))

    @pytest.mark.parametrize("meta", [{"n": 1}, {1: "x"}, {"n": None}, {"n": ["x"]}, ["n"], "n"],
                             ids=["int-value", "int-key", "null", "list-value", "list", "str"])
    def test_meta_must_map_strings_to_strings(self, meta):
        with pytest.raises(ModelError, match="meta must map strings to strings"):
            KripkeModel(figure2().index, meta)
        with pytest.raises(ModelError, match="meta must map strings to strings"):
            KripkeModel.build(states=["1"], agents=["i"], props=[], relations={"i": []},
                              valuation={}, locals={"i": ["1"]}, meta=meta)

    @given(st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_string_meta_loads_back(self, meta):
        m = KripkeModel(figure2().index, meta)
        assert dumps_model(m) == json.dumps(oracles.oracle_doc(m), indent=2, sort_keys=True) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.json")
            save_model(m, path)
            again = load_model(path)
        assert again == m and again.meta == meta

    def test_lineage_in_state_names(self, tmp_path):
        from epk import lie_online
        m = lie_online(load_model(fixture_path("figure2_minus_g")), "m", "g", {S("3")}).model
        p = tmp_path / "lied.json"
        save_model(m, str(p))
        again = load_model(str(p))
        assert again == m
        assert S("3@shift") in again.states


def _refuse(src, dst):
    raise PermissionError(13, "Permission denied")


class TestAtomicWrites:
    def _copy_of_figure2(self, tmp_path):
        src = tmp_path / "m.json"
        src.write_bytes(Path(fixture_path("figure2")).read_bytes())
        return src

    def test_failed_serialization_leaves_in_place_input_alone(self, tmp_path, monkeypatch):
        src = self._copy_of_figure2(tmp_path)
        before = src.read_bytes()

        def broken(model):
            raise RuntimeError("serializer failed")

        monkeypatch.setattr(serialize, "_model_pieces", broken)
        with pytest.raises(RuntimeError, match="serializer failed"):
            run_cli(str(src), "update", "offline", "g", "--in-place")
        assert src.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.json"]

    @pytest.mark.parametrize("write", [save_model, export_dot], ids=["model", "dot"])
    def test_failed_replace_leaves_target_and_no_temporary(self, tmp_path, monkeypatch, write):
        target = tmp_path / "out"
        target.write_text("old")

        monkeypatch.setattr(serialize.os, "replace", _refuse)
        with pytest.raises(DocumentError, match="Permission denied"):
            write(figure2(), str(target))
        assert target.read_text() == "old"
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("write, pieces", [(save_model, "_model_pieces"),
                                               (export_dot, "_dot_pieces")], ids=["model", "dot"])
    def test_failure_midway_leaves_target_and_no_temporary(self, tmp_path, monkeypatch, write,
                                                           pieces):
        target = tmp_path / "out"
        target.write_text("old")
        written = getattr(serialize, pieces)
        during = []

        def failing(model):
            text = written(model)
            yield next(text)
            yield "x" * 100_000  # more than a write buffer: the temporary file has text
            during.extend(os.listdir(tmp_path))
            raise RuntimeError("stopped midway")

        monkeypatch.setattr(serialize, pieces, failing)
        with pytest.raises(RuntimeError, match="stopped midway"):
            write(figure2(), str(target))
        assert len(during) == 2
        assert target.read_text() == "old"
        assert os.listdir(tmp_path) == ["out"]

    def test_failed_replace_exits_2(self, tmp_path, monkeypatch):
        src = self._copy_of_figure2(tmp_path)
        before = src.read_bytes()
        monkeypatch.setattr(serialize.os, "replace", _refuse)
        code, _, err = run_cli(str(src), "update", "offline", "g", "--in-place")
        assert code == 2 and err.startswith("epk: error:")
        assert src.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.json"]

    def test_in_place_update_keeps_the_file_mode(self, tmp_path):
        src = self._copy_of_figure2(tmp_path)
        src.chmod(0o640)
        code, _, _ = run_cli(str(src), "update", "offline", "g", "--in-place")
        assert code == 0 and "g" not in load_model(str(src)).agents
        assert stat.S_IMODE(src.stat().st_mode) == 0o640
        assert os.listdir(tmp_path) == ["m.json"]

    def test_save_through_a_symlink_keeps_the_link(self, tmp_path):
        real = self._copy_of_figure2(tmp_path)
        link = tmp_path / "link.json"
        link.symlink_to(real)
        code, _, _ = run_cli(str(link), "update", "offline", "g", "--in-place")
        assert code == 0 and link.is_symlink()
        assert "g" not in load_model(str(real)).agents

    def test_missing_directory_is_a_document_error(self, tmp_path):
        with pytest.raises(DocumentError, match="No such file"):
            save_model(figure2(), str(tmp_path / "nowhere" / "m.json"))

    def test_output_under_a_file_is_a_document_error(self, tmp_path):
        (tmp_path / "afile").write_text("")
        with pytest.raises(DocumentError, match="Not a directory"):
            save_model(figure2(), str(tmp_path / "afile" / "m.json"))

    def test_interrupted_in_place_update_leaves_input_and_no_temporary(self, tmp_path,
                                                                       monkeypatch):
        src = self._copy_of_figure2(tmp_path)
        before = src.read_bytes()
        written = serialize._model_pieces

        def interrupted(model):
            yield next(written(model))
            raise KeyboardInterrupt

        monkeypatch.setattr(serialize, "_model_pieces", interrupted)
        assert run_cli(str(src), "update", "offline", "g", "--in-place")[::2] == (130, "")
        assert src.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.json"]

    # A lie-online on figure2_minus_g, and the document it writes.
    LIE = [fixture_path("figure2_minus_g"), "update", "lie-online", "--liar", "m", "--new", "g",
           "--locals", "3"]

    @staticmethod
    def _lie_document():
        lied = lie_online(load_model(fixture_path("figure2_minus_g")), "m", "g", [S("3")])
        return dumps_model(lied.model)

    def test_a_fifo_is_written_into_not_replaced(self, tmp_path):
        # The document is far smaller than a pipe's buffer, and the read end
        # is open before the command starts, so the write never blocks.
        fifo = tmp_path / "out"
        os.mkfifo(fifo)
        read = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, _, err = run_cli(*self.LIE, "-o", str(fifo))
            got = os.read(read, 1 << 16)
        finally:
            os.close(read)
        assert (code, err) == (0, "")
        assert got == self._lie_document().encode()
        assert stat.S_ISFIFO(fifo.stat().st_mode) and os.listdir(tmp_path) == ["out"]

    def test_a_fifo_whose_reader_has_gone_is_an_error(self, tmp_path, monkeypatch):
        fifo = tmp_path / "out"
        os.mkfifo(fifo)
        read = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        written = serialize._model_pieces

        def reader_leaves(model):
            os.close(read)  # the command has opened the fifo by now
            yield from written(model)

        monkeypatch.setattr(serialize, "_model_pieces", reader_leaves)
        code, out, err = run_cli(*self.LIE, "-o", str(fifo))
        assert (code, err) == (2, f"epk: error: {fifo}: Broken pipe\n")
        assert out.startswith("update lie-online (g): ")

    def test_output_to_dev_stdout_follows_the_summary(self, tmp_path):
        summary = run_cli(*self.LIE)[1]
        done = self._to_dev_stdout(tmp_path, subprocess.PIPE)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == summary + self._lie_document()

    def test_output_to_dev_stdout_appends_to_the_file_stdout_is(self, tmp_path):
        log = tmp_path / "log"
        log.write_text("before\n")
        inode = log.stat().st_ino
        with open(log, "a") as fh:
            done = self._to_dev_stdout(tmp_path, fh)
        assert (done.returncode, done.stderr) == (0, "")
        assert log.stat().st_ino == inode
        assert log.read_text() == "before\n" + run_cli(*self.LIE)[1] + self._lie_document()
        assert sorted(os.listdir(tmp_path)) == ["log"]

    def test_output_to_a_closed_dev_stdout_exits_141(self, tmp_path):
        # export-dot writes its line after the rendering, so the rendering is
        # the first text that meets the closed pipe.
        read, write = os.pipe()
        os.close(read)  # the reader has gone before the child writes
        try:
            done = self._to_dev_stdout(tmp_path, write, [fixture_path("figure2"), "export-dot"])
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, "")

    def _to_dev_stdout(self, tmp_path, stdout, argv=LIE):
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "epk", *argv, "-o", "/dev/stdout"],
                              cwd=tmp_path, env=env, stdout=stdout, stderr=subprocess.PIPE,
                              text=True, timeout=60)

    @pytest.mark.parametrize("write", [save_model, export_dot], ids=["model", "dot"])
    @pytest.mark.parametrize("char", ["x", "\U0001F600"], ids=["ascii", "four-byte"])
    def test_the_longest_file_name_is_written(self, tmp_path, write, char):
        name = char * (os.pathconf(tmp_path, "PC_NAME_MAX") // len(char.encode()))
        write(figure2(), str(tmp_path / name))
        assert os.listdir(tmp_path) == [name]


class TestStreamedWrites:
    """A save or DOT export writes its text a source row at a time, so it
    holds about one row of text, not the document: after an arrival, whose
    newcomer has the universal relation, the document is |S|² names."""

    @pytest.fixture(scope="class")
    def arrived(self):
        m = random_sparse_model(random.Random(1), 1000)
        return update_online(m, "z", {sorted(m.states)[0]}).model

    @pytest.mark.parametrize("write, dumps", [(save_model, dumps_model), (export_dot, dumps_dot)],
                             ids=["model", "dot"])
    def test_peak_memory_is_about_one_row(self, tmp_path, arrived, write, dumps):
        path = tmp_path / "out"
        tracemalloc.start()
        try:
            write(arrived, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        assert path.read_bytes() == dumps(arrived).encode()


class TestDot:
    def test_figure2_counts(self):
        dot = dumps_dot(figure2())
        assert dot.count("->") == 9
        assert dot.count('label="m"') == 5
        assert dot.count('label="f"') == 3
        assert dot.count('label="g"') == 1
        for name in ("1", "2", "3"):
            assert f'"{name}"' in dot

    def test_no_props_nodes_labeled_by_id(self):
        from epk import KripkeModel
        m = KripkeModel.build(states=["s"], agents=["i"], props=[],
                              relations={"i": []}, valuation={}, locals={"i": ["s"]})
        assert 'label="s\\nI(i)"' in dumps_dot(m)

    def test_lie_output_clusters_by_lineage(self):
        from epk import lie_online
        m = lie_online(load_model(fixture_path("figure2_minus_g")), "m", "g", {S("3")}).model
        dot = dumps_dot(m)
        assert "subgraph cluster_act" in dot
        assert "subgraph cluster_shift" in dot

    def test_deterministic(self):
        assert dumps_dot(figure2()) == dumps_dot(figure2())

    def test_quotes_and_backslashes_in_names_are_escaped(self, tmp_path):
        names = ['a"b', "c\\", '\\"', "d"]
        doc = {"states": sorted(names), "agents": ["i"], "props": ["p"],
               "relations": {"i": {'a"b': ["c\\"], "c\\": ['\\"', "d"]}},
               "valuation": {"p": ['a"b']}, "locals": {"i": ["c\\"]}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        dot = dumps_dot(load_model(str(path)))
        string = r'"(?:[^"\\]|\\.)*"'  # a well-formed quoted DOT string
        node = re.compile(rf'\s*({string}) \[label=({string})(?:, \w+=(?:{string}|\w+))*\];')
        edge = re.compile(rf'\s*({string}) -> ({string}) \[label={string}\];')
        ids = set()
        for line in dot.splitlines():
            if m := edge.fullmatch(line):
                ids.update(m.groups())
            elif m := node.fullmatch(line):
                ids.add(m[1])
                assert m[2] == m[1] or m[2].startswith(m[1][:-1] + "\\n")  # name, then props
            else:
                assert '"' not in line, line
        assert {re.sub(r"\\(.)", r"\1", q[1:-1]) for q in ids} == set(names)


class TestCli:
    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()
        first = run_cli(fixture_path("figure2"), "check", "--agent", "m", "~P[m,g]")
        second = run_cli(fixture_path("figure2"), "check", "--global", "p")
        assert (first[:2], second[:2]) == ((0, "true\n"), (0, "false\n"))

    def test_check_agent_scope(self):
        code, out, _ = run_cli(fixture_path("figure2"), "check", "--agent", "m", "~P[m,g]")
        assert code == 0
        assert out.strip() == "true"

    def test_check_expect_mismatch_exits_1(self):
        code, out, _ = run_cli(fixture_path("figure2"), "check", "--agent", "m",
                               "P[m,g]", "--expect", "true")
        assert code == 1
        assert out.strip() == "false"

    def test_check_state_scope(self):
        code, out, _ = run_cli(fixture_path("figure2"), "check", "--state", "3", "B[f] C[m,g]")
        assert code == 0 and out.strip() == "true"

    def test_check_global_scope(self):
        code, out, _ = run_cli(fixture_path("figure2"), "check", "--global", "p")
        assert code == 0 and out.strip() == "false"

    def test_validate_local_reports_kd45(self):
        code, out, _ = run_cli(fixture_path("figure2"), "validate", "--mode", "local")
        assert code == 0
        for a in ("m", "f", "g"):
            assert f"agent {a} [local" in out
        assert out.count("KD45=yes") == 3

    def test_validate_global_flags_g(self):
        code, out, _ = run_cli(fixture_path("figure2"), "validate", "--mode", "global")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("agent g"))
        assert "serial=no" in line

    def test_validate_require_kd45_exit(self):
        code, _, _ = run_cli(fixture_path("figure2"), "validate",
                             "--mode", "global", "--require-kd45")
        assert code == 1

    def test_update_lie_online_pipeline(self, tmp_path):
        out_path = str(tmp_path / "lied.json")
        code, out, _ = run_cli(fixture_path("figure2_minus_g"), "update", "lie-online",
                               "--liar", "m", "--new", "g", "--locals", "3",
                               "-o", out_path)
        assert code == 0
        assert "1 discarded" in out
        code, out, _ = run_cli(out_path, "check", "--agent", "f", "C[f,g]",
                               "--expect", "true")
        assert code == 0 and out.strip() == "true"

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        shutil.copyfile(fixture_path("figure2_minus_g"), tmp_path / "m.json")
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def epk(*argv):
            return subprocess.run([sys.executable, "-m", "epk", *argv], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=60)

        done = epk("m.json", "update", "lie-online", "--liar", "m", "--new", "g",
                   "--locals", "3", "-o", "out.json")
        assert (done.returncode, done.stderr) == (0, "") and "1 discarded" in done.stdout
        done = epk("out.json", "check", "--agent", "f", "C[f,g]", "--expect", "true")
        assert (done.returncode, done.stdout, done.stderr) == (0, "true\n", "")
        relations = json.loads((tmp_path / "out.json").read_text())["relations"]
        assert relations and all(isinstance(rel, dict) for rel in relations.values())

    def test_update_does_not_touch_input_without_in_place(self, tmp_path):
        src = tmp_path / "m.json"
        src.write_bytes(Path(fixture_path("figure2")).read_bytes())
        before = src.read_bytes()
        run_cli(str(src), "update", "offline", "g", "-o", str(tmp_path / "out.json"))
        assert src.read_bytes() == before

    def test_update_in_place(self, tmp_path):
        src = tmp_path / "m.json"
        src.write_bytes(Path(fixture_path("figure2")).read_bytes())
        code, _, _ = run_cli(str(src), "update", "offline", "g", "--in-place")
        assert code == 0
        assert "g" not in load_model(str(src)).agents

    def test_export_dot(self, tmp_path):
        out_path = str(tmp_path / "m.dot")
        code, _, _ = run_cli(fixture_path("figure2"), "export-dot", "-o", out_path)
        assert code == 0
        assert Path(out_path).read_text().startswith("digraph model {")

    def test_show(self):
        code, out, _ = run_cli(fixture_path("figure2"), "show")
        assert code == 0
        assert "states (3)" in out and "I(m) = {1, 2}" in out

    FIGURE2_META = (
        "meta.description: Three agents m, f, g over states 1-3; m cannot distinguish 1 from 2"
        " and is unaware of g, while f and g sit at state 3.\n"
        "meta.name: figure2\n")

    def test_show_text(self):
        code, out, err = run_cli(fixture_path("figure2"), "show")
        assert (code, err) == (0, "")
        assert out == (
            "states (3): 1, 2, 3\n"
            "agents (3): f, g, m\n"
            "props (1): p\n"
            "  I(f) = {3}  |R(f)| = 3\n"
            "  I(g) = {3}  |R(g)| = 1\n"
            "  I(m) = {1, 2}  |R(m)| = 5\n" + self.FIGURE2_META)

    def test_show_text_after_a_lie(self, tmp_path):
        lied = str(tmp_path / "lied.json")
        assert run_cli(fixture_path("figure2"), "update", "lie-online", "--liar", "m", "--new",
                       "z", "--locals", "3", "-o", lied)[0] == 0
        code, out, err = run_cli(lied, "show")
        assert (code, err) == (0, "")
        assert out == (
            "states (5): 1@act, 1@shift, 2@act, 2@shift, 3@shift\n"
            "agents (4): f, g, m, z\n"
            "props (1): p\n"
            "  I(f) = {3@shift}  |R(f)| = 5\n"
            "  I(g) = {3@shift}  |R(g)| = 1\n"
            "  I(m) = {1@act, 2@act}  |R(m)| = 9\n"
            "  I(z) = {3@shift}  |R(z)| = 9\n" + self.FIGURE2_META)

    @pytest.mark.parametrize("depth", [5000, 5001])
    def test_long_negation_chain_answers_by_parity(self, depth):
        # p holds at state 1, so an even number of negations keeps it true.
        code, out, err = run_cli(fixture_path("figure2"), "check", "--state", "1",
                                 "~" * depth + "p")
        assert (code, err) == (0, "")
        assert out.strip() == ("true" if depth % 2 == 0 else "false")

    def test_long_belief_chain(self):
        code, out, err = run_cli(fixture_path("figure2"), "check", "--agent", "f",
                                 "B[f] " * 5000 + "p")
        assert (code, out.strip(), err) == (0, "true", "")

    def test_deep_parentheses_exit_2(self):
        code, out, err = run_cli(fixture_path("figure2"), "check", "--state", "1",
                                 "(" * 5000 + "p" + ")" * 5000)
        assert code == 2 and out == ""
        assert err.startswith("epk: error:") and "nested" in err

    @pytest.mark.parametrize("argv", [
        ["x.json", "frobnicate"],
        ["x.json", "check", "--state"],
        ["x.json", "update", "online", "j"],
        ["x.json", "validate", "--mode", "sideways"],
        [],
        ["x.json", "update", "lie-offline", "--target", "g"],
        ["x.json", "update", "lie-online", "--new", "z", "--locals", "3"],
        ["x.json", "update", "offline", "g", "--locals", "3"],
        ["x.json", "update", "lie-offline", "--liar", "m", "--target", "g", "--locals", "3"],
        ["x.json", "update", "bogus", "g"],
        ["x.json", "update", "offline", "g", "--liar", "m"],
    ], ids=["command", "missing-value", "missing-option", "bad-choice", "nothing",
            "lie-offline-no-liar", "lie-online-no-liar", "offline-locals", "lie-offline-locals",
            "unknown-update", "offline-liar"])
    def test_usage_errors_return_2_and_write_to_err(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: epk") and "error:" in err

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("kind", ["offline", "online", "lie-offline", "lie-online"])
    def test_each_update_writes_what_its_operator_returns(self, tmp_path, kind, name):
        # Each subcommand hands its arguments to its own operator: the liar
        # and the target in their places, the --locals names as states.
        m = load_model(fixture_path(name))
        liar, target = sorted(m.agents)[0], sorted(m.agents)[-1]
        names = sorted(str(s) for s in m.states)[:2]
        states = {S(n) for n in names}
        argv, call = {
            "offline": ([target], lambda: update_offline(m, target)),
            "online": (["z", "--locals", *names], lambda: update_online(m, "z", states)),
            "lie-offline": (["--liar", liar, "--target", target],
                            lambda: lie_offline(m, liar, target)),
            "lie-online": (["--liar", liar, "--new", "z", "--locals", *names],
                           lambda: lie_online(m, liar, "z", states)),
        }[kind]
        out = tmp_path / "out.json"
        code, text, _ = run_cli(fixture_path(name), "update", kind, *argv, "-o", str(out))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = call()
        shown = "z" if kind.endswith("online") else target
        assert (code, text.splitlines()[0]) == (0, f"update {kind} ({shown}): "
                                                   f"{len(m.states)} -> {len(res.model.states)} "
                                                   f"states, {len(res.discarded_states)} discarded")
        assert out.read_text() == dumps_model(res.model)

    def test_help_goes_to_out_and_returns_0(self):
        code, out, err = run_cli("--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: epk") and "update" in out

    def test_errors_exit_2(self, tmp_path):
        code, _, err = run_cli(str(tmp_path / "missing.json"), "show")
        assert code == 2 and "error" in err
        code, _, err = run_cli(fixture_path("figure2"), "check", "--agent", "m", "p &")
        assert code == 2 and "error" in err
        code, _, err = run_cli(fixture_path("figure2"), "check", "--agent", "zz", "p")
        assert code == 2 and "zz" in err
