"""The names `epk` exports: a name added or retired is an edit here.  And
the one part of `epk` the tests' oracles may import: its formula nodes."""

import ast
import os

import epk

PUBLIC = [
    "And", "Believes", "CertainAgent", "DocumentError", "Formula", "FramePropertyReport",
    "Implies", "KripkeModel", "ModelError", "Not", "Or", "ParseError", "PossibleAgent",
    "Prop", "StateId", "UpdateResult", "check_properties", "classify_model", "doc_to_model",
    "dumps_dot", "dumps_model", "export_dot", "holds_at", "holds_for_agent",
    "holds_globally", "is_kd45", "is_s5", "lie_offline", "lie_online", "load_model",
    "parse", "presence_at", "prune_unreachable", "reachable_from", "replicate_with_lineage",
    "sat", "save_model", "subjective_relation", "unparse", "update_offline",
    "update_online",
]


def test_the_public_names_are_these():
    assert sorted(epk.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(epk, name) is not None


def test_the_oracles_import_only_the_formula_nodes_of_epk():
    # Expected truths and update results come from bench/reference.py,
    # which imports nothing from epk: an oracle that read models through
    # epk could hide a fault of epk's in the value it expects.
    with open(os.path.join(os.path.dirname(__file__), "oracles.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {m for m in modules if m and m.split(".")[0] == "epk"} == {"epk.formulas"}
