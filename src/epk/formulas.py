"""Formula syntax for the extended epistemic language.

Grammar (ASCII):

    formula     := unary ( ( "->" | "|" | "&" ) unary )*
    unary       := "~" unary
                 | "B" "[" ident "]" unary
                 | "C" "[" ident "," ident "]"
                 | "P" "[" ident "," ident "]"
                 | "(" formula ")"
                 | ident
    ident       := [A-Za-z_][A-Za-z0-9_]*

The connectives bind from loosest to tightest as listed, by their levels
in `_CONNECTIVES`; "->" groups to the right, "|" and "&" to the left.
`B`, `C`, `P` act as keywords only when immediately followed by "[";
otherwise they are ordinary proposition names.  Runs of `~` and `B[i]`
may be of any length; parentheses nest at most `MAX_PAREN_DEPTH` deep.

`parse` reads the text into tokens with one regex scan and checks that
it read every non-space character.  Over the token list, by index, one
loop reads unary formulas and joins them by operator precedence, and
only parentheses recurse; a token's position is found only for a
`ParseError`.
Nodes are immutable slotted objects, each built by a plain `__init__`.
"""

from __future__ import annotations

import re


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Node:
    """What every formula node shares: fields that cannot be assigned,
    a stored hash, and printing that walks the formula with an explicit
    stack, so any nesting depth works.  Equality compares the stored
    hashes and then the `repr`s, which name every class and field.

    `__init__` stores the fields and the hash of the class and fields, in
    which a child is its stored hash.  String hashes are salted per
    process, so pickling and copying rebuild a node through `__init__`,
    from a flat list of the distinct nodes, children first (`_rebuild`):
    like printing, that works at any depth, and shared subterms stay shared.
    """

    __slots__ = ("_hash",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return self is other or (self._hash == other._hash and repr(self) == repr(other))

    def __repr__(self) -> str:
        out = []
        stack = [self]  # nodes, and text already rendered
        while stack:
            g = stack.pop()
            if isinstance(g, str):
                out.append(g)
                continue
            pieces = [f"{type(g).__name__}("]
            for k, name in enumerate(g.__match_args__):
                value = getattr(g, name)
                pieces += [f"{', ' if k else ''}{name}=",
                           value if isinstance(value, _Node) else repr(value)]
            pieces.append(")")
            stack += reversed(pieces)
        return "".join(out)

    def __reduce__(self):
        # Flat and children first, each distinct node once, so that no
        # depth recurses: an entry is (class, refs, *fields), where bit k
        # of refs marks field k as the number of an earlier entry.
        entries, number, stack = [], {}, [self]
        while stack:
            g = stack.pop()
            if id(g) in number:
                continue
            fields = [getattr(g, name) for name in g.__match_args__]
            kids = [x for x in fields if isinstance(x, _Node) and id(x) not in number]
            if kids:  # g again, under its children
                stack += (g, *kids)
                continue
            number[id(g)] = len(entries)
            refs = [isinstance(x, _Node) for x in fields]
            entries.append((type(g), sum(r << k for k, r in enumerate(refs)),
                            *[number[id(x)] if r else x for x, r in zip(fields, refs)]))
        return _rebuild, (tuple(entries),)


def _rebuild(entries: tuple) -> "Formula":
    """The formula `_Node.__reduce__` flattened into `entries`, made again
    entry by entry through each class's `__init__`, the root last."""
    nodes = []
    for cls, refs, *fields in entries:
        nodes.append(cls(*[nodes[x] if refs >> k & 1 else x for k, x in enumerate(fields)]))
    return nodes[-1]


_set = object.__setattr__  # past _Node.__setattr__, for __init__ only


class Prop(_Node):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)
        _set(self, "_hash", hash((Prop, name)))


class Not(_Node):
    __slots__ = __match_args__ = ("sub",)

    def __init__(self, sub: "Formula"):
        _set(self, "sub", sub)
        _set(self, "_hash", hash((Not, sub)))


class _Binary(_Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula"):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((type(self), left, right)))


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Believes(_Node):
    __slots__ = __match_args__ = ("agent", "sub")

    def __init__(self, agent: str, sub: "Formula"):
        _set(self, "agent", agent)
        _set(self, "sub", sub)
        _set(self, "_hash", hash((Believes, agent, sub)))


class _Agency(_Node):
    __slots__ = __match_args__ = ("agent", "about")

    def __init__(self, agent: str, about: str):
        _set(self, "agent", agent)
        _set(self, "about", about)
        _set(self, "_hash", hash((type(self), agent, about)))


class CertainAgent(_Agency):
    __slots__ = ()


class PossibleAgent(_Agency):
    __slots__ = ()


Formula = Prop | Not | And | Or | Implies | Believes | CertainAgent | PossibleAgent

# Each open parenthesis costs the parser a few stack frames.
MAX_PAREN_DEPTH = 100

# The name of an agent or a proposition, in a formula and in a model alike.
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(rf"\s*(->|[~&|()\[\],]|{IDENT.pattern})")
_NOT_NAMES = frozenset(["", "->", "~", "&", "|", "(", ")", "[", "]", ","])


# Binary connective -> (its node class, its level); a higher level binds
# tighter.
_CONNECTIVES = {"->": (Implies, 1), "|": (Or, 2), "&": (And, 3)}

# Binary node class -> (its level, its symbol, and the least levels its left
# and right operands may have without parentheses): "->" groups to the
# right, "&" and "|" to the left.
_BINARY = {cls: (level, symbol, *((level + 1, level) if cls is Implies else (level, level + 1)))
           for symbol, (cls, level) in _CONNECTIVES.items()}
_UNARY = 4  # the level of a prefix operator's operand, above every connective's


class _Fault(Exception):
    """A syntax error at token `args[1]`; `parse` works out its position."""


def _expected(what: str, toks: list[str], i: int) -> _Fault:
    return _Fault(f"expected {what}, found {toks[i] or 'end of input'!r}", i)


def _formula(toks: list[str], i: int, depth: int) -> tuple[Formula, int]:
    # Operator precedence: each connective waits on a stack until the next
    # one is read.  Then every waiting connective whose level is at least
    # the least level that the next one's left operand may have takes the
    # operand before it as its right operand; at the end every one does.
    operands, pending = [], []
    while True:
        f, i = _unary(toks, i, depth)
        operands.append(f)
        cls = _CONNECTIVES.get(toks[i], (None,))[0]
        floor = _BINARY[cls][2] if cls else 0
        while pending and _BINARY[pending[-1]][0] >= floor:
            right = operands.pop()
            operands[-1] = pending.pop()(operands[-1], right)
        if cls is None:
            return operands[0], i
        pending.append(cls)
        i += 1


def _unary(toks: list[str], i: int, depth: int) -> tuple[Formula, int]:
    # Runs of prefix operators are read in a loop, so they may be of any
    # length; only parentheses recurse, and their depth is capped.  Only a
    # token read as what it should be is looked past, and it is never the
    # end marker, so every index read lies within the list.
    prefixes = []
    tok = toks[i]
    while tok == "~" or tok == "B" and toks[i + 1] == "[":
        if tok == "~":
            prefixes.append(None)
            i += 1
        elif toks[i + 2] in _NOT_NAMES:
            raise _expected("a name", toks, i + 2)
        elif toks[i + 3] != "]":
            raise _expected("']'", toks, i + 3)
        else:
            prefixes.append(toks[i + 2])
            i += 4
        tok = toks[i]
    if tok == "(":
        if depth == MAX_PAREN_DEPTH:
            raise _Fault(f"parentheses nested more than {MAX_PAREN_DEPTH} deep", i)
        f, i = _formula(toks, i + 1, depth + 1)
        if toks[i] != ")":
            raise _expected("')'", toks, i)
        i += 1
    elif (tok == "C" or tok == "P") and toks[i + 1] == "[":
        for k, want in ((i + 2, None), (i + 3, ","), (i + 4, None), (i + 5, "]")):  # None: a name
            if (toks[k] in _NOT_NAMES) if want is None else (toks[k] != want):
                raise _expected("a name" if want is None else repr(want), toks, k)
        f = (CertainAgent if tok == "C" else PossibleAgent)(toks[i + 2], toks[i + 4])
        i += 6
    elif tok in _NOT_NAMES:
        raise _expected("a name", toks, i)
    else:
        f = Prop(tok)
        i += 1
    for agent in reversed(prefixes):
        f = Not(f) if agent is None else Believes(agent, f)
    return f, i


def parse(text: str) -> Formula:
    """The formula `text` spells, or a `ParseError` at its first fault."""
    toks = _TOKEN_RE.findall(text)
    # The scan skips what no token matches: every non-space character
    # must have been read into some token.
    if "".join(toks) != "".join(text.split()):
        pos = 0
        while m := _TOKEN_RE.match(text, pos):
            pos = m.end()
        pos = len(text) - len(text[pos:].lstrip())
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    toks.append("")  # end marker
    try:
        f, i = _formula(toks, 0, 0)
        if toks[i]:
            raise _Fault(f"unexpected trailing {toks[i]!r}", i)
    except _Fault as e:  # (message, index of the token at fault)
        starts = [m.start(1) for m in _TOKEN_RE.finditer(text)] + [len(text)]
        raise ParseError(e.args[0], starts[e.args[1]]) from None
    return f


def unparse(f: Formula) -> str:
    """Canonical text with minimal parentheses, written with an explicit
    stack, so any nesting depth prints.  parse(unparse(f)) == f when every
    name in `f` is an identifier: names are printed as they are, so
    `Prop("p & q")` prints as a conjunction."""
    out = []
    stack = [(f, 0)]  # (formula, level of its context), or (text, None)
    while stack:
        g, ctx = stack.pop()
        if ctx is None:
            out.append(g)
        elif isinstance(g, Prop):
            out.append(g.name)
        elif isinstance(g, _Agency):
            out.append(f"{'C' if type(g) is CertainAgent else 'P'}[{g.agent},{g.about}]")
        elif isinstance(g, (Not, Believes)):
            out.append("~" if type(g) is Not else f"B[{g.agent}] ")
            stack.append((g.sub, _UNARY))
        elif type(g) in _BINARY:
            level, symbol, left, right = _BINARY[type(g)]
            if ctx > level:
                out.append("(")
                stack.append((")", None))
            stack += [(g.right, right), (f" {symbol} ", None), (g.left, left)]
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)
