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


@dataclass(frozen=True)
class Prop:
    name: str


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Believes:
    agent: str
    sub: "Formula"


@dataclass(frozen=True)
class CertainAgent:
    agent: str
    about: str


@dataclass(frozen=True)
class PossibleAgent:
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


def _fmt(f: Formula, ctx: int) -> str:
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, CertainAgent):
        return f"C[{f.agent},{f.about}]"
    if isinstance(f, PossibleAgent):
        return f"P[{f.agent},{f.about}]"
    if isinstance(f, Not):
        return "~" + _fmt(f.sub, _UNARY)
    if isinstance(f, Believes):
        return f"B[{f.agent}] " + _fmt(f.sub, _UNARY)
    if isinstance(f, And):
        s = _fmt(f.left, _AND) + " & " + _fmt(f.right, _AND + 1)
        return f"({s})" if ctx > _AND else s
    if isinstance(f, Or):
        s = _fmt(f.left, _OR) + " | " + _fmt(f.right, _OR + 1)
        return f"({s})" if ctx > _OR else s
    if isinstance(f, Implies):
        s = _fmt(f.left, _IMPLIES + 1) + " -> " + _fmt(f.right, _IMPLIES)
        return f"({s})" if ctx > _IMPLIES else s
    raise TypeError(f"not a formula: {f!r}")


def unparse(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(unparse(f)) == f."""
    return _fmt(f, 0)


def formula_symbols(f: Formula) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """All agent names and proposition names occurring in the formula."""
    agents, props = set(), set()

    def walk(g: Formula) -> None:
        if isinstance(g, Prop):
            props.add(g.name)
        elif isinstance(g, Not):
            walk(g.sub)
        elif isinstance(g, (And, Or, Implies)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, Believes):
            agents.add(g.agent)
            walk(g.sub)
        elif isinstance(g, (CertainAgent, PossibleAgent)):
            agents.add(g.agent)
            agents.add(g.about)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f)
    return frozenset(agents), frozenset(props)
