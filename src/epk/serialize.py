"""Model documents on disk (JSON) and DOT export.

The document schema mirrors the model directly:

    {"states": [str], "agents": [str], "props": [str],
     "relations": {agent: {s: [t, ...]}},
     "valuation": {prop: [s, ...]},
     "locals": {agent: [s, ...]},
     "meta": {str: str}}              (meta is optional)

Each relation is an adjacency map from a source to the list of its
successors.  Loading also reads the older form of a relation, a list of
`[s, t]` pairs, chosen per agent by its JSON type; saving writes maps
only, listing just the sources that have a successor.  A JSON object
that gives one key twice is an error, not a silent overwrite.  Loading
checks the document's shapes and leaves its names and edges to
`KripkeModel.build`, the one reader of both.

State names carry lineage inline: "3@act", "1@act@shift".  Saving always
emits the canonical form (sorted keys, sorted lists), so a canonical
document round-trips byte-identically.

DOT export is written from the model's index as saving is: each state's
quoted id is escaped once, labels come from the valuation and local-state
masks, and each edge is read off a successor row.

Files are written piece by piece, at most one source row at a time, so a
save holds about one row of text, not the document.  The pieces go to a
new file beside the target, which then replaces it, so a failed save
leaves the target as it was.  `dumps_model` and `dumps_dot` join the
same pieces.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import stat
from collections import Counter
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .model import KripkeModel, ModelError, positions


class DocumentError(ValueError):
    """A model file that does not parse or does not validate."""


def model_to_doc(model: KripkeModel) -> dict:
    idx = model.index
    names = [s.name for s in idx.order]

    def successors(rows: List[int]) -> Dict[str, List[str]]:
        return dict(sorted((names[k], sorted(names[t] for t in positions(row)))
                           for k, row in enumerate(rows) if row))

    doc = {
        "states": sorted(names),
        "agents": sorted(model.agents),
        "props": sorted(model.props),
        "relations": {a: successors(idx.rows[a]) for a in sorted(model.agents)},
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


def _lists(relation) -> bool:
    """Whether `relation` is an adjacency map whose values are lists or a
    list of two-element lists: tested in C, without reading the names."""
    if type(relation) is dict:
        return set(map(type, relation.values())) <= {list}
    return set(map(type, relation)) <= {list} and set(map(len, relation)) <= {2}


def _relation_fault(a: str, relation) -> Optional[str]:
    """What is wrong with the shape of agent a's relation, if anything."""
    if type(relation) is dict:
        for s, targets in relation.items():
            if type(targets) is not list or not all(type(t) is str for t in targets):
                return f"relations.{a}.{s} must be a list of state names"
    else:
        for k, pair in enumerate(relation):
            if not (type(pair) is list and len(pair) == 2
                    and type(pair[0]) is str and type(pair[1]) is str):
                return f"relations.{a}[{k}] must be a pair of state names [s, t]"
    return None


def doc_to_model(doc: dict) -> KripkeModel:
    """The model a document describes.  Every field must have exactly the
    shape of the schema above, a relation either shape; anything else
    raises `DocumentError`.  The checked fields go to `KripkeModel.build`.

    The names inside a relation are read only there: one that is not a
    string is in no numbering, so `build` refuses it, and then the
    relation's shape fault is reported."""
    if not isinstance(doc, dict):
        raise DocumentError("model document must be a JSON object")
    for key in ("states", "agents", "props", "relations", "valuation", "locals"):
        if key not in doc:
            raise DocumentError(f"model document is missing {key!r}")
    states = _strings(doc["states"], "states")
    agents = _strings(doc["agents"], "agents")
    props = _strings(doc["props"], "props")
    relations = doc["relations"]
    if not isinstance(relations, dict):
        raise DocumentError("relations must be a JSON object")
    for a, relation in relations.items():
        if type(relation) not in (dict, list):
            raise DocumentError(f"relations.{a} must be an adjacency map or a list of [s, t] pairs")
        if not _lists(relation):
            raise DocumentError(_relation_fault(a, relation))
    valuation = _string_lists(doc["valuation"], "valuation")
    locals_ = _string_lists(doc["locals"], "locals")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict) or not all(isinstance(v, str) for v in meta.values()):
        raise DocumentError("meta must be a JSON object of strings")
    try:
        return KripkeModel.build(states, agents, props, relations, valuation, locals_, meta)
    except (ModelError, TypeError) as e:  # TypeError: a name that cannot be hashed
        faults = (_relation_fault(a, relation) for a, relation in relations.items())
        raise DocumentError(next(filter(None, faults), None) or str(e)) from e


def _members(pairs: list) -> dict:
    """A JSON object's members, refusing a key given twice: `json` would
    keep the last one and drop the rest unseen."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(k for k, _v in pairs)
        dup = next(k for k, n in counts.items() if n > 1)
        raise DocumentError(f"duplicate key {_quote(dup)} in a JSON object")
    return obj


def load_model(path: str) -> KripkeModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_members)
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    except OSError as e:
        raise DocumentError(f"{path}: {e.strerror}") from e
    except RecursionError:
        raise DocumentError(f"{path}: JSON nested too deeply") from None
    except ValueError as e:  # not UTF-8, an integer too long to convert, or a duplicate key
        raise DocumentError(f"{path}: {e}") from e
    try:
        return doc_to_model(doc)
    except DocumentError as e:
        raise DocumentError(f"{path}: {e}") from e


def _json_block(items: List[str], depth: int) -> str:
    """A JSON array of already encoded items, laid out as `json.dumps` lays
    it out with `indent=2` at nesting depth `depth`."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _json_object(values: Dict[str, str], depth: int) -> str:
    """A JSON object of already encoded values, its keys sorted, laid out
    as `json.dumps` lays it out with `indent=2` at nesting depth `depth`."""
    if not values:
        return "{}"
    pad = "\n" + "  " * (depth + 1)
    return ("{" + pad + ("," + pad).join(f"{_quote(k)}: {values[k]}" for k in sorted(values))
            + "\n" + "  " * depth + "}")


def _model_pieces(model: KripkeModel) -> Iterator[str]:
    """The canonical document of `model` in pieces of at most one source
    row's text: its fields in key order, every field but the relations
    one piece, and each relation a source row at a time.

    Names sort differently from states ("10" < "1@act", but state 1@act
    comes first), so the states are ranked by name once and each name is
    encoded once.  Relations are written straight from the successor
    rows: sources in rank order, and the text of each distinct row's
    target list made once, so every row of a universal block is one
    cached string.
    """
    idx = model.index
    order, n = idx.order, len(idx.order)
    names = [s.name for s in order]
    by_rank = sorted(range(n), key=names.__getitem__)  # bit of each rank
    rank = [0] * n
    for r, k in enumerate(by_rank):
        rank[k] = r
    quoted = [_quote(names[k]) for k in by_rank]
    agents = sorted(model.agents)

    def states(mask: int, depth: int = 2) -> str:
        return _json_block([quoted[r] for r in sorted(rank[k] for k in positions(mask))], depth)

    yield '{\n  "agents": ' + _json_block([_quote(a) for a in agents], 1)
    yield ',\n  "locals": ' + _json_object({a: states(idx.locals[a]) for a in agents}, 1)
    if model.meta:
        yield ',\n  "meta": ' + _json_object({k: _quote(v) for k, v in model.meta.items()}, 1)
    yield ',\n  "props": ' + _json_block([_quote(p) for p in sorted(model.props)], 1)
    yield ',\n  "relations": {'
    targets: Dict[int, str] = {}  # a row's target list, at depth 3
    for i, a in enumerate(agents):
        rows, sep = idx.rows[a], "\n      "
        yield ("," if i else "") + "\n    " + _quote(a) + ": {"
        for r, k in enumerate(by_rank):
            row = rows[k]
            if row:
                text = targets.get(row)
                if text is None:
                    text = targets[row] = states(row, 3)
                yield f"{sep}{quoted[r]}: {text}"
                sep = ",\n      "
        yield "\n    }" if sep[0] == "," else "}"
    yield ("\n  }" if agents else "}") + ',\n  "states": ' + _json_block(quoted, 1)
    yield (',\n  "valuation": '
           + _json_object({p: states(idx.valuation[p]) for p in model.props}, 1) + "\n}\n")


def dumps_model(model: KripkeModel) -> str:
    """The canonical document of `model`: exactly the text of
    `json.dumps(model_to_doc(model), indent=2, sort_keys=True)` plus a
    newline, written without the pure-Python encoder `json` falls back
    to when `indent` is set."""
    return "".join(_model_pieces(model))


def _write_atomically(path: str, pieces: Iterable[str]) -> None:
    """Replace the file at `path` with the text `pieces` make, written as
    they come.

    The text goes to a new file in the same directory, which then takes
    the place of `path` in one `os.replace`, so `path` never holds a part
    of the text.  If anything fails, making the pieces included, `path`
    is left as it was and the new file is removed.  A `path` that is there
    but is not a regular file, such as a pipe, is not replaced: the text is
    written into it.  Nor is the file standard output is, whatever it is
    (`/dev/stdout`, say): the text is written to standard output, after
    what is already there.  Any failure is a `DocumentError`, but for a
    broken pipe on standard output, which stays a `BrokenPipeError`.
    """
    try:
        st = os.stat(path)
    except OSError:  # a new file, or a path that fails below
        st = None
    try:
        to_stdout = st is not None and os.path.samestat(st, os.fstat(1))
    except OSError:  # descriptor 1 is closed
        to_stdout = False
    in_place = to_stdout or (st is not None and not stat.S_ISREG(st.st_mode))
    target = os.path.realpath(path)  # through a symlink, not over it
    directory, name = os.path.split(target)
    # os.urandom, not the secrets module: importing that loads OpenSSL.
    # The name is cut, so that it fits wherever the target's name fits.
    tmp = os.path.join(directory, f".{name[:32]}.{os.urandom(8).hex()}.tmp")
    try:
        # Through a copy of descriptor 1, the text follows what was written there.
        with open(os.dup(1) if to_stdout else path if in_place else tmp,
                  "w" if in_place else "x", encoding="utf-8") as fh:
            fh.writelines(pieces)
        if not in_place:
            if os.path.exists(target):
                shutil.copymode(target, tmp)
            os.replace(tmp, target)
    except OSError as e:
        if to_stdout and isinstance(e, BrokenPipeError):
            raise  # standard output's reader has gone, as after `epk ... | head`
        raise DocumentError(f"{path}: {e.strerror}") from e
    finally:  # the new file is gone, or never was: its directory may not even be one
        with contextlib.suppress(OSError):
            os.remove(tmp)


def save_model(model: KripkeModel, path: str) -> None:
    _write_atomically(path, _model_pieces(model))


def _dot_pieces(model: KripkeModel) -> Iterator[str]:
    """The Graphviz text of `model`, written from its index: the states in
    sorted order, in one cluster per last lineage tag where there are
    several, labelled from the valuation and local-state masks, then the
    edges of each successor row, one piece per row.  Each state id is
    escaped once; agent, proposition and tag names are tokens, which need
    no escaping."""
    idx = model.index
    # quoted, with backslashes and double quotes escaped: no name ends its string early
    ids = ['"' + s.name.replace("\\", "\\\\").replace('"', '\\"') + '"' for s in idx.order]
    props, owners = [[] for _ in ids], [[] for _ in ids]  # each state's names, sorted
    for marks, masks in ((props, idx.valuation), (owners, idx.locals)):
        for name in sorted(masks):
            for k in positions(masks[name]):
                marks[k].append(name)

    def node(k: int) -> str:
        # the label's lines joined by DOT's "\n", the first the id without its closing quote
        label = ids[k][:-1] + ("\\n" + ",".join(props[k]) if props[k] else "")
        if not owners[k]:
            return f'{ids[k]} [label={label}"];'
        return (f'{ids[k]} [label={label}\\nI({",".join(owners[k])})", '
                'peripheries=2, style=filled, fillcolor="lightgrey"];')

    by_tag: Dict[Tuple[str, ...], List[int]] = {}  # the last tag, or () for none
    for k, s in enumerate(idx.order):
        by_tag.setdefault(s.lineage[-1:], []).append(k)
    yield "digraph model {\n  rankdir=LR;\n  node [shape=circle];\n"
    for tag in sorted(by_tag):
        nodes = [node(k) for k in by_tag[tag]]
        if len(by_tag) > 1:  # one cluster per tag
            name = "".join(tag) or "orig"
            nodes = [f"subgraph cluster_{name} {{", f'  label="{name}";',
                     *("  " + x for x in nodes), "}"]
        yield "".join(f"  {x}\n" for x in nodes)
    for a in sorted(idx.rows):
        end = f' [label="{a}"];\n'
        for k, row in enumerate(idx.rows[a]):
            if row:
                edge = f"  {ids[k]} -> "
                yield edge + (end + edge).join([ids[t] for t in positions(row)]) + end
    yield "}\n"


def dumps_dot(model: KripkeModel) -> str:
    """The Graphviz text of `model`; see `_dot_pieces`."""
    return "".join(_dot_pieces(model))


def export_dot(model: KripkeModel, path: str) -> None:
    _write_atomically(path, _dot_pieces(model))
