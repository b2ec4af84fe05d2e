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
checks only what belongs to a document (a JSON object with the schema's
keys, no key given twice, valid Unicode) and leaves the fields' shapes,
names and edges to `KripkeModel.build`, the one checker of plain values.

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
import stat
from collections import Counter
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii as _quote

from .model import KripkeModel, ModelError, positions


class DocumentError(ValueError):
    """A model file that does not parse or does not validate."""


def doc_to_model(doc: dict) -> KripkeModel:
    """The model a document describes.  Only what belongs to a document
    is checked here: that it is a JSON object with the six keys of the
    schema above, and that its state names and `meta` are valid Unicode.
    Its fields go to `KripkeModel.build`, the one check of their shapes,
    names and edges, whose `ModelError` becomes a `DocumentError` with
    the same text."""
    if not isinstance(doc, dict):
        raise DocumentError("model document must be a JSON object")
    for key in ("states", "agents", "props", "relations", "valuation", "locals"):
        if key not in doc:
            raise DocumentError(f"model document is missing {key!r}")
    try:
        model = KripkeModel.build(doc["states"], doc["agents"], doc["props"], doc["relations"],
                                  doc["valuation"], doc["locals"], doc.get("meta"))
    except ModelError as e:
        raise DocumentError(str(e)) from e
    for where, texts in (("states", doc["states"]), ("meta", [*model.meta, *model.meta.values()])):
        try:  # JSON's \ud800 escape makes a lone surrogate, which no UTF-8 output can hold
            "".join(texts).encode("utf-8")
        except UnicodeEncodeError as e:
            raise DocumentError(f"{where} must be valid Unicode, not {e.object[e.start]!a}") from e
    return model


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
            return doc_to_model(json.load(fh, object_pairs_hook=_members))
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    except OSError as e:
        raise DocumentError(f"{path}: {e.strerror}") from e
    except RecursionError:
        raise DocumentError(f"{path}: JSON nested too deeply") from None
    except ValueError as e:  # not UTF-8, a long integer, a duplicate key or a bad document
        raise DocumentError(f"{path}: {e}") from e


def _json_block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A JSON array, or with `brackets` "{}" an object, of encoded items,
    laid out as `json.dumps` lays it out with `indent=2` at depth `depth`."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def _json_object(values: dict[str, str], depth: int) -> str:
    """A JSON object of already encoded values, its keys sorted."""
    return _json_block([f"{_quote(k)}: {values[k]}" for k in sorted(values)], depth, "{}")


def _model_pieces(model: KripkeModel) -> Iterator[str]:
    """The canonical document of `model` in pieces of at most one source
    row's text: its fields in key order, every field but the relations
    one piece, and each relation a source row at a time.

    States keep their numbers in the index, but names sort differently
    ("10" < "1@act", but state 1@act comes first), so each list of names
    is sorted by name: the sources and `"states"` once, in `by_name`, and
    each target list as it is written.  Each name is encoded once, and
    the text of each distinct row's target list is made once, so every
    row of a universal block is one cached string.
    """
    idx = model.index
    names = [s.name for s in idx.order]
    name_of = names.__getitem__
    by_name = sorted(range(len(names)), key=name_of)
    quoted = list(map(_quote, names))
    agents = sorted(model.agents)

    def states(mask: int, depth: int = 2) -> str:
        return _json_block([quoted[k] for k in sorted(positions(mask), key=name_of)], depth)

    yield '{\n  "agents": ' + _json_block([_quote(a) for a in agents], 1)
    yield ',\n  "locals": ' + _json_object({a: states(idx.locals[a]) for a in agents}, 1)
    if model.meta:
        yield ',\n  "meta": ' + _json_object({k: _quote(v) for k, v in model.meta.items()}, 1)
    yield ',\n  "props": ' + _json_block([_quote(p) for p in sorted(model.props)], 1)
    yield ',\n  "relations": {'
    targets: dict[int, str] = {}  # a row's target list, at depth 3
    for i, a in enumerate(agents):
        rows, sep = idx.rows[a], "\n      "
        yield ("," if i else "") + "\n    " + _quote(a) + ": {"
        for k in by_name:
            row = rows[k]
            if row:
                text = targets.get(row)
                if text is None:
                    text = targets[row] = states(row, 3)
                yield f"{sep}{quoted[k]}: {text}"
                sep = ",\n      "
        yield "\n    }" if sep[0] == "," else "}"
    yield ("\n  }" if agents else "}") + ',\n  "states": ' + _json_block([quoted[k] for k in by_name], 1)
    yield (',\n  "valuation": '
           + _json_object({p: states(idx.valuation[p]) for p in model.props}, 1) + "\n}\n")


def dumps_model(model: KripkeModel) -> str:
    """The canonical document of `model`: the schema above with every list
    sorted, `meta` only when it has an entry, laid out as `json.dumps(doc,
    indent=2, sort_keys=True)` lays it out, plus a newline, but without the
    pure-Python encoder `json` falls back to when `indent` is set."""
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
            if st is not None:  # the new file keeps the mode of the one it replaces
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
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

    by_tag: dict[tuple[str, ...], list[int]] = {}  # the last tag, or () for none
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
