"""The names `epk` exports: a name added or retired is an edit here."""

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
