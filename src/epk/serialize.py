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

Files are written whole: the text goes to a new file beside the target,
which then replaces it, so a failed save leaves the target as it was.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
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
        # The usual case is checked in C; the loop finds the first bad pair.
        if (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
                and set(map(type, chain.from_iterable(pairs))) <= {str}):
            continue
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


def _json_block(items: List[str], depth: int, brackets: str = "[]") -> str:
    """A JSON array (or, with brackets "{}", object) of already encoded
    items, laid out as `json.dumps` lays it out with `indent=2` at nesting
    depth `depth`."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def _json_object(values: Dict[str, str], depth: int) -> str:
    """A JSON object of already encoded values, its keys sorted."""
    return _json_block([f"{_quote(k)}: {values[k]}" for k in sorted(values)], depth, "{}")


def dumps_model(model: KripkeModel) -> str:
    """The canonical document of `model`: exactly the text of
    `json.dumps(model_to_doc(model), indent=2, sort_keys=True)` plus a
    newline, written without the pure-Python encoder `json` falls back
    to when `indent` is set.

    States are sorted by name once and each name is encoded once; lists
    of states are then sorted by rank, and each edge is two pieces of
    text looked up by rank.
    """
    names = {s: s.name for s in model.states}
    order = sorted(names, key=names.__getitem__)
    rank = {s: r for r, s in enumerate(order)}
    quoted = [_quote(names[s]) for s in order]

    def states(sts) -> str:
        return _json_block([quoted[r] for r in sorted(rank[s] for s in sts)], 2)

    # An edge at depth 3 is "[", its source, its target and "]" on four lines.
    head = [f"[\n        {q},\n        " for q in quoted]
    tail = [f"{q}\n      ]" for q in quoted]
    n = len(order)

    def edges(rel) -> str:
        keys = sorted(rank[s] * n + rank[t] for (s, t) in rel)
        return _json_block([head[k // n] + tail[k % n] for k in keys], 2)

    doc = {
        "states": _json_block(quoted, 1),
        "agents": _json_block([_quote(a) for a in sorted(model.agents)], 1),
        "props": _json_block([_quote(p) for p in sorted(model.props)], 1),
        "relations": _json_object({a: edges(model.relations[a]) for a in model.agents}, 1),
        "valuation": _json_object({p: states(model.valuation[p]) for p in model.props}, 1),
        "locals": _json_object({a: states(model.locals[a]) for a in model.agents}, 1),
    }
    if model.meta:
        # Meta is small and may hold any JSON value, so `json` writes it.
        doc["meta"] = json.dumps(dict(model.meta), indent=2, sort_keys=True).replace("\n", "\n  ")
    return _json_object(doc, 0) + "\n"


def _write_atomically(path: str, text: str) -> None:
    """Replace the file at `path` with `text`.

    The text goes to a new file in the same directory, which then takes
    the place of `path` in one `os.replace`, so `path` never holds a part
    of the text.  If anything fails, `path` is left as it was and the new
    file is removed.
    """
    target = os.path.realpath(path)  # through a symlink, not over it
    directory, name = os.path.split(target)
    # os.urandom, not the secrets module: importing that loads OpenSSL.
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        if os.path.exists(target):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except OSError as e:
        raise DocumentError(f"{path}: {e.strerror}") from e
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def save_model(model: KripkeModel, path: str) -> None:
    _write_atomically(path, dumps_model(model))


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
    _write_atomically(path, dumps_dot(model))
