"""Formula syntax for the extended epistemic language.

Grammar (ASCII):

    formula     := implication
    implication := disjunction ( "->" implication )?
    disjunction := conjunction ( "|" conjunction )*
    conjunction := unary ( "&" unary )*
    unary       := "~" unary
                 | "B" "[" ident "]" unary
                 | "C" "[" ident "," ident "]"
                 | "P" "[" ident "," ident "]"
                 | "(" formula ")"
                 | ident
    ident       := [A-Za-z_][A-Za-z0-9_]*

`B`, `C`, `P` act as keywords only when immediately followed by "[";
otherwise they are ordinary proposition names.  Runs of `~` and `B[i]`
may be of any length; parentheses nest at most `MAX_PAREN_DEPTH` deep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, Tuple, Union


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Node:
    """What every formula node shares: equality, hashing and printing that
    walk the formula with an explicit stack, so any nesting depth works.

    The hash is computed once, when the node is built, from its class and
    fields; a child contributes its own stored hash.  String hashes are
    salted per process, so pickling and copying rebuild a node through
    `__init__` instead of carrying the stored value over.
    """

    __match_args__: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((type(self), *map(self.__getattribute__,
                                                               self.__match_args__))))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            f, g = stack.pop()
            if f is g:
                continue
            if type(f) is not type(g) or f._hash != g._hash:
                return False
            for name in f.__match_args__:
                x, y = getattr(f, name), getattr(g, name)
                if isinstance(x, _Node):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

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
        return (type(self), tuple(map(self.__getattribute__, self.__match_args__)))


@dataclass(frozen=True, eq=False, repr=False)
class Prop(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Node):
    sub: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class Implies(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class Believes(_Node):
    agent: str
    sub: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class CertainAgent(_Node):
    agent: str
    about: str


@dataclass(frozen=True, eq=False, repr=False)
class PossibleAgent(_Node):
    agent: str
    about: str


Formula = Union[Prop, Not, And, Or, Implies, Believes, CertainAgent, PossibleAgent]

# Each open parenthesis costs the parser a few stack frames.
MAX_PAREN_DEPTH = 100

_TOKEN_RE = re.compile(r"\s*(->|[~&|()\[\],]|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or not m.group(1):
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_pos]!r}", bad_pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append(("", len(text)))  # end marker
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # parentheses currently open

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def pos(self) -> int:
        return self.tokens[self.i][1]

    def advance(self) -> str:
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            got = self.peek() or "end of input"
            raise ParseError(f"expected {tok!r}, found {got!r}", self.pos())
        self.advance()

    def ident(self) -> str:
        tok = self.peek()
        if not tok or not (tok[0].isalpha() or tok[0] == "_"):
            got = tok or "end of input"
            raise ParseError(f"expected a name, found {got!r}", self.pos())
        return self.advance()

    def formula(self) -> Formula:
        parts = [self.disjunction()]
        while self.peek() == "->":
            self.advance()
            parts.append(self.disjunction())
        f = parts.pop()
        while parts:  # "->" associates to the right
            f = Implies(parts.pop(), f)
        return f

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek() == "|":
            self.advance()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        # Runs of prefix operators are read in a loop, so they may be of
        # any length; only parentheses recurse, and their depth is capped.
        prefixes = []
        while True:
            if self.peek() == "~":
                self.advance()
                prefixes.append(None)
            elif self.peek() == "B" and self.tokens[self.i + 1][0] == "[":
                self.advance()
                self.expect("[")
                prefixes.append(self.ident())
                self.expect("]")
            else:
                break
        f = self.atom()
        for agent in reversed(prefixes):
            f = Not(f) if agent is None else Believes(agent, f)
        return f

    def atom(self) -> Formula:
        tok = self.peek()
        if tok == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError(f"parentheses nested more than {MAX_PAREN_DEPTH} deep", self.pos())
            self.advance()
            self.depth += 1
            f = self.formula()
            self.expect(")")
            self.depth -= 1
            return f
        if tok in ("C", "P") and self.tokens[self.i + 1][0] == "[":
            self.advance()
            self.expect("[")
            first = self.ident()
            self.expect(",")
            second = self.ident()
            self.expect("]")
            return CertainAgent(first, second) if tok == "C" else PossibleAgent(first, second)
        return Prop(self.ident())


def parse(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    if p.peek():
        raise ParseError(f"unexpected trailing {p.peek()!r}", p.pos())
    return f


# Precedence levels used by the printer; higher binds tighter.
_IMPLIES, _OR, _AND, _UNARY = 1, 2, 3, 4

# Binary connective -> (its level, its symbol, the levels its left and right
# operands are printed at).  "->" associates to the right, "&" and "|" to the left.
_BINARY = {
    And: (_AND, "&", _AND, _AND + 1),
    Or: (_OR, "|", _OR, _OR + 1),
    Implies: (_IMPLIES, "->", _IMPLIES + 1, _IMPLIES),
}


def unparse(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(unparse(f)) == f.

    Walks the formula with an explicit stack, so any nesting depth prints.
    """
    out = []
    stack = [(f, 0)]  # (formula, level of its context), or (text, None)
    while stack:
        g, ctx = stack.pop()
        if ctx is None:
            out.append(g)
        elif isinstance(g, Prop):
            out.append(g.name)
        elif isinstance(g, CertainAgent):
            out.append(f"C[{g.agent},{g.about}]")
        elif isinstance(g, PossibleAgent):
            out.append(f"P[{g.agent},{g.about}]")
        elif isinstance(g, Not):
            out.append("~")
            stack.append((g.sub, _UNARY))
        elif isinstance(g, Believes):
            out.append(f"B[{g.agent}] ")
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


def formula_symbols(f: Formula) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """All agent names and proposition names occurring in the formula."""
    agents, props = set(), set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Prop):
            props.add(g.name)
        elif isinstance(g, Not):
            stack.append(g.sub)
        elif isinstance(g, (And, Or, Implies)):
            stack += [g.right, g.left]
        elif isinstance(g, Believes):
            agents.add(g.agent)
            stack.append(g.sub)
        elif isinstance(g, (CertainAgent, PossibleAgent)):
            agents.add(g.agent)
            agents.add(g.about)
        else:
            raise TypeError(f"not a formula: {g!r}")
    return frozenset(agents), frozenset(props)
