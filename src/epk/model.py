"""Kripke models with per-agent local states, plus the graph utilities
(successor lookup, reachability closure, pruning, tagged replication) that
the update operators are built from.

Models are immutable values: every operation returns a new model and never
mutates its input.  That lets each model build its `ModelIndex` once, on
first use, and keep it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Tuple

Agent = str
Prop = str

LINEAGE_TAGS = ("act", "shift")


class ModelError(ValueError):
    """Raised when a model invariant is violated or an unknown entity is named."""


@dataclass(frozen=True, order=True)
class StateId:
    """A state name plus the sequence of replica tags that produced it.

    Original states have an empty lineage; each untruthful update appends
    one tag ("act" or "shift").

    Every set and dict of states hashes them, so the hash,
    `hash((base, lineage))`, is computed once, when the state is built.
    String hashes are salted per process, so pickling and copying rebuild
    the state through `__init__` instead of carrying the cached value over.
    """

    base: str
    lineage: Tuple[str, ...] = ()

    def __post_init__(self):
        if not self.base or "@" in self.base:
            raise ModelError(f"bad state base name: {self.base!r}")
        for tag in self.lineage:
            if tag not in LINEAGE_TAGS:
                raise ModelError(f"bad lineage tag: {tag!r}")
        object.__setattr__(self, "_hash", hash((self.base, self.lineage)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.base, self.lineage))

    def tagged(self, tag: str) -> "StateId":
        return StateId(self.base, self.lineage + (tag,))

    @property
    def name(self) -> str:
        return "@".join((self.base,) + self.lineage)

    @classmethod
    def parse(cls, name: str) -> "StateId":
        parts = name.split("@")
        return cls(parts[0], tuple(parts[1:]))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"StateId({self.name!r})"


Edge = Tuple[StateId, StateId]


class _StateIds(dict):
    """State names (or `StateId`s) to one `StateId` object each, parsed on
    first lookup; a lookup that hits costs no Python call."""

    def __missing__(self, x) -> StateId:
        sid = self[x] = x if isinstance(x, StateId) else StateId.parse(str(x))
        return sid


def _check_token(name: str, what: str) -> str:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ModelError(f"bad {what} name: {name!r}")
    return name


@dataclass(frozen=True)
class KripkeModel:
    """An immutable Kripke model: states, agents, propositions, per-agent
    accessibility relations, a valuation, and per-agent local states."""

    states: FrozenSet[StateId]
    agents: FrozenSet[Agent]
    props: FrozenSet[Prop]
    relations: Mapping[Agent, FrozenSet[Edge]]
    valuation: Mapping[Prop, FrozenSet[StateId]]
    locals: Mapping[Agent, FrozenSet[StateId]]
    meta: Mapping[str, str] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for a in self.agents:
            _check_token(a, "agent")
        for p in self.props:
            _check_token(p, "proposition")
        if set(self.relations) != set(self.agents):
            raise ModelError("relations must have exactly one entry per agent")
        if set(self.locals) != set(self.agents):
            raise ModelError("locals must have exactly one entry per agent")
        if set(self.valuation) != set(self.props):
            raise ModelError("valuation must have exactly one entry per proposition")
        # Set inclusion runs in C; the first offender is looked for only
        # when there is one.
        for a, edges in self.relations.items():
            if not self.states.issuperset(chain.from_iterable(edges)):
                s = self._first_undeclared(chain.from_iterable(edges))
                raise ModelError(f"relation for {a} uses undeclared state {s}")
        for p, sts in self.valuation.items():
            if not self.states.issuperset(sts):
                raise ModelError(f"valuation of {p} names undeclared state {self._first_undeclared(sts)}")
        for a, sts in self.locals.items():
            if not sts:
                raise ModelError(f"local states of agent {a} must be non-empty")
            if not self.states.issuperset(sts):
                raise ModelError(f"local state {self._first_undeclared(sts)} of agent {a} is undeclared")

    def _first_undeclared(self, states: Iterable[StateId]) -> StateId:
        return next(s for s in states if s not in self.states)

    @classmethod
    def build(cls, states, agents, props, relations, valuation, locals, meta=None):
        """Normalize plain iterables / string state names into a validated model.

        Each distinct state name is parsed once, and every mention of it
        becomes the same `StateId` object.
        """
        st = _StateIds().__getitem__
        return cls(
            states=frozenset(map(st, states)),
            agents=frozenset(agents),
            props=frozenset(props),
            relations={a: frozenset((st(s), st(t)) for (s, t) in edges)
                       for a, edges in dict(relations).items()},
            valuation={p: frozenset(map(st, sts)) for p, sts in dict(valuation).items()},
            locals={a: frozenset(map(st, sts)) for a, sts in dict(locals).items()},
            meta=dict(meta or {}),
        )

    @cached_property
    def index(self) -> "ModelIndex":
        """The model's successor index, built on first use."""
        return ModelIndex(self)

    def require_agent(self, agent: Agent) -> None:
        if agent not in self.agents:
            raise ModelError(f"unknown agent: {agent}")

    def require_state(self, state: StateId) -> None:
        if state not in self.states:
            raise ModelError(f"unknown state: {state}")


def pack(flags: Iterable[object]) -> int:
    """The bitmask whose bit k is set iff the k-th flag is truthy."""
    return int("".join("1" if f else "0" for f in flags)[::-1] or "0", 2)


def positions(mask: int) -> Iterator[int]:
    """The numbers of the bits set in `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ModelIndex:
    """A model's states numbered in sorted order, with every set of states
    held as a bitmask over that numbering: bit k stands for `order[k]`.

    `rows[a][k]` is the mask of the a-successors of state k, `present[a]`
    the mask of states with at least one a-edge, and `valuation` and
    `locals` hold the model's sets of the same names as masks.
    """

    def __init__(self, model: KripkeModel):
        self.order: Tuple[StateId, ...] = tuple(sorted(model.states))
        bit = {s: k for k, s in enumerate(self.order)}
        self.bit: Dict[StateId, int] = bit
        self.full = (1 << len(self.order)) - 1
        self.rows: Dict[Agent, List[int]] = {}
        for a, edges in model.relations.items():
            row = [0] * len(self.order)
            for (s, t) in edges:
                row[bit[s]] |= 1 << bit[t]
            self.rows[a] = row
        self.present = {a: pack(row) for a, row in self.rows.items()}
        self.valuation = {p: self.mask(sts) for p, sts in model.valuation.items()}
        self.locals = {a: self.mask(sts) for a, sts in model.locals.items()}

    def mask(self, states: Iterable[StateId]) -> int:
        """The bitmask of `states`."""
        bit, m = self.bit, 0
        for s in states:
            m |= 1 << bit[s]
        return m

    def states_of(self, mask: int) -> FrozenSet[StateId]:
        """The states in `mask`."""
        return frozenset(self.order[k] for k in positions(mask))

    def image(self, mask: int, agents: Iterable[Agent]) -> int:
        """The states one edge of one of `agents` leads to from `mask`."""
        rows = [self.rows[a] for a in agents]
        out = 0
        for k in positions(mask):
            for row in rows:
                out |= row[k]
        return out

    def closure(self, mask: int, agents: Iterable[Agent]) -> int:
        """The smallest superset of `mask` closed under the agents' edges."""
        agents = list(agents)
        seen = frontier = mask
        while frontier:
            frontier = self.image(frontier, agents) & ~seen
            seen |= frontier
        return seen


def successors(model: KripkeModel, agent: Agent, state: StateId) -> FrozenSet[StateId]:
    """All states reachable from `state` by one edge of `agent`."""
    model.require_agent(agent)
    model.require_state(state)
    idx = model.index
    return idx.states_of(idx.rows[agent][idx.bit[state]])


def subjective_relation(model: KripkeModel, agent: Agent) -> FrozenSet[Edge]:
    """The agent's relation with its domain restricted to the agent's local states."""
    model.require_agent(agent)
    loc = model.locals[agent]
    return frozenset((s, t) for (s, t) in model.relations[agent] if s in loc)


def reachable_from(model: KripkeModel, seeds: Iterable[StateId],
                   agents: Iterable[Agent]) -> FrozenSet[StateId]:
    """Smallest superset of `seeds` closed under the given agents' edges."""
    seeds = frozenset(seeds)
    agents = frozenset(agents)
    for s in seeds:
        model.require_state(s)
    for a in agents:
        model.require_agent(a)
    idx = model.index
    return idx.states_of(idx.closure(idx.mask(seeds), agents))


def prune_unreachable(model: KripkeModel, seeds: Iterable[StateId]) -> KripkeModel:
    """Drop every state not reachable from `seeds` via any agent's edges.

    Fails if pruning would empty some agent's local-state set: that signals
    a mis-specified update, not a repairable condition.
    """
    kept = reachable_from(model, seeds, model.agents)
    for a in sorted(model.agents):
        if not (model.locals[a] & kept):
            raise ModelError(f"pruning would empty the local states of agent {a}")
    # `kept` is closed under every edge, so an edge is kept iff its source
    # is, and a relation all of whose sources are kept is kept whole.
    idx = model.index
    dropped = idx.full & ~idx.mask(kept)
    return KripkeModel(
        states=kept,
        agents=model.agents,
        props=model.props,
        relations={a: edges if not idx.present[a] & dropped
                   else frozenset(e for e in edges if e[0] in kept)
                   for a, edges in model.relations.items()},
        valuation={p: sts & kept for p, sts in model.valuation.items()},
        locals={a: sts & kept for a, sts in model.locals.items()},
        meta=dict(model.meta),
    )


def replicate_with_lineage(model: KripkeModel, tag: str) -> KripkeModel:
    """Isomorphic copy with `tag` appended to every state's lineage."""
    if tag not in LINEAGE_TAGS:
        raise ModelError(f"bad lineage tag: {tag!r}")
    rn = {s: s.tagged(tag) for s in model.states}
    return KripkeModel(
        states=frozenset(rn.values()),
        agents=model.agents,
        props=model.props,
        relations={a: frozenset((rn[s], rn[t]) for (s, t) in edges)
                   for a, edges in model.relations.items()},
        valuation={p: frozenset(rn[s] for s in sts)
                   for p, sts in model.valuation.items()},
        locals={a: frozenset(rn[s] for s in sts)
                for a, sts in model.locals.items()},
        meta=dict(model.meta),
    )
