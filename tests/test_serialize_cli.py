import io
import json

import pytest

from epk import (DocumentError, StateId, doc_to_model, dumps_dot, dumps_model,
                 load_model, save_model)
from epk.cli import main
from helpers import figure2, fixture_path


def S(name):
    return StateId.parse(name)


class TestDocuments:
    def test_figure2_fixture_matches_construction(self):
        assert load_model(fixture_path("figure2")) == figure2()
        loaded = load_model(fixture_path("figure2"))
        assert loaded.relations["f"] == {(S("1"), S("3")), (S("2"), S("3")), (S("3"), S("3"))}

    def test_all_fixtures_load(self):
        for name in ("figure2", "figure2_minus_g", "cube3", "gruffalo"):
            load_model(fixture_path(name))

    def test_undeclared_state_in_edge(self):
        doc = json.load(open(fixture_path("figure2")))
        doc["relations"]["g"].append(["4", "4"])
        with pytest.raises(DocumentError, match="4"):
            doc_to_model(doc)

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

    def test_roundtrip_is_canonical(self, tmp_path):
        p = tmp_path / "m.json"
        save_model(figure2(), str(p))
        first = p.read_bytes()
        save_model(load_model(str(p)), str(p))
        assert p.read_bytes() == first

    def test_fixture_files_are_canonical(self):
        for name in ("figure2", "figure2_minus_g", "cube3", "gruffalo"):
            path = fixture_path(name)
            on_disk = open(path, "rb").read()
            assert dumps_model(load_model(path)).encode() == on_disk

    def test_lineage_in_state_names(self, tmp_path):
        from epk import lie_online
        m = lie_online(load_model(fixture_path("figure2_minus_g")), "m", "g", {S("3")}).model
        p = tmp_path / "lied.json"
        save_model(m, str(p))
        again = load_model(str(p))
        assert again == m
        assert S("3@shift") in again.states


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


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestCli:
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

    def test_update_does_not_touch_input_without_in_place(self, tmp_path):
        src = tmp_path / "m.json"
        src.write_bytes(open(fixture_path("figure2"), "rb").read())
        before = src.read_bytes()
        run_cli(str(src), "update", "offline", "g", "-o", str(tmp_path / "out.json"))
        assert src.read_bytes() == before

    def test_update_in_place(self, tmp_path):
        src = tmp_path / "m.json"
        src.write_bytes(open(fixture_path("figure2"), "rb").read())
        code, _, _ = run_cli(str(src), "update", "offline", "g", "--in-place")
        assert code == 0
        assert "g" not in load_model(str(src)).agents

    def test_export_dot(self, tmp_path):
        out_path = str(tmp_path / "m.dot")
        code, _, _ = run_cli(fixture_path("figure2"), "export-dot", "-o", out_path)
        assert code == 0
        assert open(out_path).read().startswith("digraph model {")

    def test_show(self):
        code, out, _ = run_cli(fixture_path("figure2"), "show")
        assert code == 0
        assert "states (3)" in out and "I(m) = {1, 2}" in out

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

    def test_errors_exit_2(self, tmp_path):
        code, _, err = run_cli(str(tmp_path / "missing.json"), "show")
        assert code == 2 and "error" in err
        code, _, err = run_cli(fixture_path("figure2"), "check", "--agent", "m", "p &")
        assert code == 2 and "error" in err
        code, _, err = run_cli(fixture_path("figure2"), "check", "--agent", "zz", "p")
        assert code == 2 and "zz" in err
