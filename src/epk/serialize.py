"""Model documents on disk (JSON) and DOT export.

The document schema mirrors the model directly:

    {"states": [str], "agents": [str], "props": [str],
     "relations": {agent: [[s, t], ...]},
     "valuation": {prop: [s, ...]},
     "locals": {agent: [s, ...]},
     "meta": {str: str}}              (meta is optional)

State names carry lineage inline: "3@act", "1@act@shift".  Saving always
emits the canonical form (sorted keys, sorted lists), so a canonical
document round-trips byte-identically.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .model import KripkeModel, ModelError, StateId


class DocumentError(ValueError):
    """A model file that does not parse or does not validate."""


def model_to_doc(model: KripkeModel) -> dict:
    doc = {
        "states": sorted(s.name for s in model.states),
        "agents": sorted(model.agents),
        "props": sorted(model.props),
        "relations": {a: sorted([s.name, t.name] for (s, t) in model.relations[a])
                      for a in sorted(model.agents)},
        "valuation": {p: sorted(s.name for s in model.valuation[p])
                      for p in sorted(model.props)},
        "locals": {a: sorted(s.name for s in model.locals[a])
                   for a in sorted(model.agents)},
    }
    if model.meta:
        doc["meta"] = dict(sorted(model.meta.items()))
    return doc


def _strings(value, where: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise DocumentError(f"{where} must be a list of strings")
    return value


def _string_lists(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise DocumentError(f"{where} must be a JSON object")
    for name, names in value.items():
        _strings(names, f"{where}.{name}")
    return value


def _relations(value) -> dict:
    if not isinstance(value, dict):
        raise DocumentError("relations must be a JSON object")
    for a, pairs in value.items():
        if not isinstance(pairs, list):
            raise DocumentError(f"relations.{a} must be a list of [s, t] pairs")
        for k, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2
                    and isinstance(pair[0], str) and isinstance(pair[1], str)):
                raise DocumentError(f"relations.{a}[{k}] must be a pair of state names [s, t]")
    return value


def doc_to_model(doc: dict) -> KripkeModel:
    """The model a document describes.  Every field must have exactly the
    shape of the schema above; anything else raises `DocumentError`."""
    if not isinstance(doc, dict):
        raise DocumentError("model document must be a JSON object")
    for key in ("states", "agents", "props", "relations", "valuation", "locals"):
        if key not in doc:
            raise DocumentError(f"model document is missing {key!r}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict) or not all(isinstance(v, str) for v in meta.values()):
        raise DocumentError("meta must be a JSON object of strings")
    try:
        return KripkeModel.build(
            states=_strings(doc["states"], "states"),
            agents=_strings(doc["agents"], "agents"),
            props=_strings(doc["props"], "props"),
            relations=_relations(doc["relations"]),
            valuation=_string_lists(doc["valuation"], "valuation"),
            locals=_string_lists(doc["locals"], "locals"),
            meta=meta,
        )
    except ModelError as e:
        raise DocumentError(str(e)) from e


def load_model(path: str) -> KripkeModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    except OSError as e:
        raise DocumentError(f"{path}: {e.strerror}") from e
    try:
        return doc_to_model(doc)
    except DocumentError as e:
        raise DocumentError(f"{path}: {e}") from e


def dumps_model(model: KripkeModel) -> str:
    return json.dumps(model_to_doc(model), indent=2, sort_keys=True) + "\n"


def save_model(model: KripkeModel, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps_model(model))
    except OSError as e:
        raise DocumentError(f"{path}: {e.strerror}") from e


def _dot_node(model: KripkeModel, s: StateId) -> str:
    true_props = sorted(p for p in model.props if s in model.valuation[p])
    owners = sorted(a for a in model.agents if s in model.locals[a])
    label = s.name
    if true_props:
        label += "\\n" + ",".join(true_props)
    if owners:
        label += "\\nI(" + ",".join(owners) + ")"
    attrs = [f'label="{label}"']
    if owners:
        attrs.append("peripheries=2")
        attrs.append("style=filled")
        attrs.append('fillcolor="lightgrey"')
    return f'  "{s.name}" [{", ".join(attrs)}];'


def dumps_dot(model: KripkeModel) -> str:
    lines: List[str] = ["digraph model {", "  rankdir=LR;", "  node [shape=circle];"]

    by_tag: Dict[str, List[StateId]] = {}
    for s in sorted(model.states):
        tag = s.lineage[-1] if s.lineage else ""
        by_tag.setdefault(tag, []).append(s)

    if len(by_tag) > 1:
        for tag in sorted(by_tag):
            name = tag or "orig"
            lines.append(f"  subgraph cluster_{name} {{")
            lines.append(f'    label="{name}";')
            for s in by_tag[tag]:
                lines.append("  " + _dot_node(model, s))
            lines.append("  }")
    else:
        for s in sorted(model.states):
            lines.append(_dot_node(model, s))

    for a in sorted(model.agents):
        for (s, t) in sorted(model.relations[a]):
            lines.append(f'  "{s.name}" -> "{t.name}" [label="{a}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(model: KripkeModel, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps_dot(model))
    except OSError as e:
        raise DocumentError(f"{path}: {e.strerror}") from e
