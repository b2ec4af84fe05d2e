"""Kripke models with per-agent local states, plus the graph utilities
(successor lookup, reachability closure, pruning, tagged replication) that
the update operators are built from.

A model numbers its states in sorted order and stores every agent's
relation as successor rows, one bitmask per state over that numbering
(its `ModelIndex`).  The rows are the only stored form of the relations:
`model.relations[a]` is a lazy, read-only set of (s, t) edges over them,
whose size is a popcount and whose membership test is a bit test, so no
edge object exists unless a caller iterates the view.  Loading, updates,
pruning, frame checks and saving all pass rows along.

Models are immutable values: every operation returns a new model and never
mutates its input.  They are compared by value and cannot be hashed.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple

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

# The sort key of a state: the order of `StateId`, compared in C.
state_key = attrgetter("base", "lineage")


def sort_states(states: Iterable[StateId]) -> Tuple[StateId, ...]:
    """`states` in sorted order, the numbering of every model's masks."""
    return tuple(sorted(states, key=state_key))


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


def check_symbols(agents: Iterable[Agent], props: Iterable[Prop], relations: Iterable[Agent],
                  valuation: Iterable[Prop], locals: Iterable[Agent]) -> None:
    """Agent and proposition names are tokens, and `relations` and `locals`
    have one entry per agent, `valuation` one per proposition (each given
    by its keys)."""
    agents, props = set(agents), set(props)
    for a in agents:
        _check_token(a, "agent")
    for p in props:
        _check_token(p, "proposition")
    if set(relations) != agents:
        raise ModelError("relations must have exactly one entry per agent")
    if set(locals) != agents:
        raise ModelError("locals must have exactly one entry per agent")
    if set(valuation) != props:
        raise ModelError("valuation must have exactly one entry per proposition")


def pack(flags: Iterable[object]) -> int:
    """The bitmask whose bit k is set iff the k-th flag is truthy."""
    return int("".join("1" if f else "0" for f in flags)[::-1] or "0", 2)


# Bytes of binary digits to bytes of 0s and 1s, for `itertools.compress`.
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def positions(mask: int) -> Iterator[int]:
    """The numbers of the bits set in `mask`, lowest first.

    Stepping from one bit to the next costs a few operations on the whole
    mask, so a mask with many bits set is read from its binary digits
    instead: one pass in C, O(|mask|) in all.  The two cost the same at
    about 128 bits set on masks of 10^3 to 10^5 bits, and at about one
    bit in eight on shorter ones: a full mask of 128 bits is read from
    its digits six times faster than by stepping."""
    if mask.bit_count() > min(128, mask.bit_length() >> 3):
        return compress(count(), bin(mask)[:1:-1].encode().translate(_DIGITS))
    return _step(mask)


def _step(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def carrier(to: List[int]) -> Callable[[int], int]:
    """The map of masks from one numbering to another, where `to[k]` is the
    one-bit mask of state k's new number, or 0 for a state left out.
    Results are kept per mask: rows repeat (every row of a universal
    block is the same mask), and each distinct one is carried once."""
    done: Dict[int, int] = {}

    def carry(mask: int) -> int:
        out = done.get(mask)
        if out is None:
            out = 0
            for k in positions(mask):
                out |= to[k]
            done[mask] = out
        return out

    return carry


class ModelIndex:
    """A model's states numbered in sorted order, with every set of states
    held as a bitmask over that numbering: bit k stands for `order[k]`.

    `rows[a][k]` is the mask of the a-successors of state k; the rows are
    the model's relations.  `valuation` and `locals` hold the model's sets
    of the same names as masks, and `present[a]` is the mask of states
    with at least one a-edge.  Nothing here is changed after it is built,
    so models may share rows and whole indexes.
    """

    def __init__(self, order: Tuple[StateId, ...], rows: Dict[Agent, List[int]],
                 valuation: Dict[Prop, int], locals: Dict[Agent, int],
                 bit: Optional[Dict[StateId, int]] = None):
        self.order = order
        self.bit: Dict[StateId, int] = dict(zip(order, range(len(order)))) if bit is None else bit
        self.full = (1 << len(order)) - 1
        self.rows = rows
        self.valuation = valuation
        self.locals = locals

    @cached_property
    def present(self) -> Dict[Agent, int]:
        return {a: pack(row) for a, row in self.rows.items()}

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

    def relabel(self, new: List[Optional[StateId]]) -> "ModelIndex":
        """The index with state k renamed `new[k]`, or left out where that
        is None.  The states kept must be closed under every agent's edges:
        each kept row is carried to the new sorted numbering whole."""
        keep = sorted((k for k, s in enumerate(new) if s is not None),
                      key=lambda k: state_key(new[k]))
        order = tuple(new[k] for k in keep)
        if keep == list(range(len(new))):  # the same numbering
            return ModelIndex(order, self.rows, self.valuation, self.locals)
        to = [0] * len(new)
        for pos, k in enumerate(keep):
            to[k] = 1 << pos
        carry = carrier(to)
        return ModelIndex(
            order,
            {a: [carry(rows[k]) for k in keep] for a, rows in self.rows.items()},
            {p: carry(m) for p, m in self.valuation.items()},
            {a: carry(m) for a, m in self.locals.items()})

    def restricted(self, kept: int) -> "ModelIndex":
        """The index of the states in `kept`, which must be closed under
        every agent's edges."""
        if kept == self.full:
            return self
        return self.relabel([s if kept >> k & 1 else None for k, s in enumerate(self.order)])

    def closure(self, mask: int, agents: Iterable[Agent]) -> int:
        """The smallest superset of `mask` closed under the agents' edges."""
        agents = list(agents)
        seen = frontier = mask
        while frontier:
            frontier = self.image(frontier, agents) & ~seen
            seen |= frontier
        return seen


class Edges(Set):
    """One relation as a read-only set of (s, t) edges, read off successor
    rows over a numbering of states.

    `len` is a popcount and `in` a bit test; iterating yields the edges in
    sorted order, made as they are asked for.  Set operations with other
    sets return frozensets.
    """

    __slots__ = ("_order", "_bit", "_rows")

    def __init__(self, order: Tuple[StateId, ...], bit: Dict[StateId, int], rows: List[int]):
        self._order, self._bit, self._rows = order, bit, rows

    def __len__(self) -> int:
        return sum(map(int.bit_count, self._rows))

    def __contains__(self, edge) -> bool:
        try:
            s, t = edge
            return bool(self._rows[self._bit[s]] >> self._bit[t] & 1)
        except (TypeError, ValueError, KeyError):
            return False

    def __iter__(self) -> Iterator[Edge]:
        order = self._order
        for k, row in enumerate(self._rows):
            if row:
                s = order[k]
                for m in positions(row):
                    yield (s, order[m])

    __hash__ = None

    @classmethod
    def _from_iterable(cls, it) -> FrozenSet[Edge]:
        return frozenset(it)

    def __repr__(self) -> str:
        return f"Edges({list(self)!r})"


def rows_of(edges: Iterable[Edge], bit: Dict[StateId, int], message: str) -> List[int]:
    """The successor rows of `edges` over the numbering `bit`; a ModelError
    with `message`, formatted with the first endpoint `bit` lacks, when
    there is one."""
    rows = [0] * len(bit)
    try:
        for (s, t) in edges:
            rows[bit[s]] |= 1 << bit[t]
    except KeyError as e:
        raise ModelError(message.format(e.args[0])) from None
    return rows


def mask_of(states: Iterable, bit: Dict, message: str) -> int:
    """The bitmask of `states` (states or names) numbered by `bit`; a
    ModelError with `message`, formatted with the first one `bit` lacks,
    when there is one."""
    m = 0
    try:
        for s in states:
            m |= 1 << bit[s]
    except KeyError as e:
        raise ModelError(message.format(e.args[0])) from None
    return m


class KripkeModel:
    """An immutable Kripke model: states, agents, propositions, per-agent
    accessibility relations, a valuation, and per-agent local states.

    `relations` maps each agent to a lazy `Edges` view of its successor
    rows in `index`; `valuation` and `locals` map names to frozensets of
    states.  Equality compares everything but `meta`, relations as sets of
    edges.  Models hold dicts, so hashing is switched off.
    """

    __hash__ = None

    states: FrozenSet[StateId]
    agents: FrozenSet[Agent]
    props: FrozenSet[Prop]
    relations: Mapping[Agent, Edges]
    valuation: Mapping[Prop, FrozenSet[StateId]]
    locals: Mapping[Agent, FrozenSet[StateId]]
    meta: Mapping[str, str]
    index: ModelIndex

    def __init__(self, states: Iterable[StateId], agents: Iterable[Agent], props: Iterable[Prop],
                 relations: Mapping[Agent, Iterable[Edge]],
                 valuation: Mapping[Prop, Iterable[StateId]],
                 locals: Mapping[Agent, Iterable[StateId]],
                 meta: Optional[Mapping[str, str]] = None):
        """A validated model of edge iterables and sets of `StateId`s."""
        states, agents, props = frozenset(states), frozenset(agents), frozenset(props)
        check_symbols(agents, props, relations, valuation, locals)
        order = sort_states(states)
        bit = dict(zip(order, range(len(order))))
        rows = {a: rows_of(edges, bit, f"relation for {a} uses undeclared state {{}}")
                for a, edges in relations.items()}
        valuation = {p: frozenset(sts) for p, sts in valuation.items()}
        locals = {a: frozenset(sts) for a, sts in locals.items()}
        vmasks = {p: mask_of(sts, bit, f"valuation of {p} names undeclared state {{}}")
                  for p, sts in valuation.items()}
        lmasks = {}
        for a, sts in locals.items():
            if not sts:
                raise ModelError(f"local states of agent {a} must be non-empty")
            lmasks[a] = mask_of(sts, bit, f"local state {{}} of agent {a} is undeclared")
        self._fill(ModelIndex(order, rows, vmasks, lmasks, bit), states, valuation, locals, meta)

    @classmethod
    def from_index(cls, index: ModelIndex,
                   meta: Optional[Mapping[str, str]] = None) -> "KripkeModel":
        """The model whose states, relations, valuation and local states
        `index` holds; its agents are the keys of `index.rows` and its
        propositions those of `index.valuation`.  Only names and local
        states are checked: the masks are taken to lie within the states."""
        check_symbols(index.rows, index.valuation, index.rows, index.valuation, index.locals)
        for a in index.rows:
            if not index.locals[a]:
                raise ModelError(f"local states of agent {a} must be non-empty")
        model = cls.__new__(cls)
        model._fill(index, frozenset(index.order),
                    {p: index.states_of(m) for p, m in index.valuation.items()},
                    {a: index.states_of(m) for a, m in index.locals.items()}, meta)
        return model

    def _fill(self, index, states, valuation, locals, meta) -> None:
        vars(self).update(
            states=states, agents=frozenset(index.rows), props=frozenset(index.valuation),
            relations=MappingProxyType({a: Edges(index.order, index.bit, row)
                                        for a, row in index.rows.items()}),
            valuation=valuation, locals=locals, meta=dict(meta or {}), index=index)

    def __setattr__(self, name, value):
        raise AttributeError(f"KripkeModel is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"KripkeModel is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, KripkeModel):
            return NotImplemented
        # Equal state sets are numbered alike, so the rows compare directly.
        return (self.states == other.states and self.agents == other.agents
                and self.props == other.props and self.valuation == other.valuation
                and self.locals == other.locals and self.index.rows == other.index.rows)

    def __repr__(self) -> str:
        return (f"KripkeModel(states={[s.name for s in self.index.order]}, "
                f"agents={sorted(self.agents)}, props={sorted(self.props)}, "
                f"edges={ {a: len(self.relations[a]) for a in sorted(self.agents)} })")

    @classmethod
    def build(cls, states, agents, props, relations, valuation, locals, meta=None):
        """Normalize plain iterables / string state names into a validated model.

        Each distinct state name is parsed once, and every mention of it
        becomes the same `StateId` object.
        """
        st = _StateIds().__getitem__
        return cls(
            states=map(st, states),
            agents=agents,
            props=props,
            relations={a: ((st(s), st(t)) for (s, t) in edges)
                       for a, edges in dict(relations).items()},
            valuation={p: map(st, sts) for p, sts in dict(valuation).items()},
            locals={a: map(st, sts) for a, sts in dict(locals).items()},
            meta=meta,
        )

    def require_agent(self, agent: Agent) -> None:
        if agent not in self.agents:
            raise ModelError(f"unknown agent: {agent}")

    def require_state(self, state: StateId) -> None:
        if state not in self.states:
            raise ModelError(f"unknown state: {state}")


def successors(model: KripkeModel, agent: Agent, state: StateId) -> FrozenSet[StateId]:
    """All states reachable from `state` by one edge of `agent`."""
    model.require_agent(agent)
    model.require_state(state)
    idx = model.index
    return idx.states_of(idx.rows[agent][idx.bit[state]])


def subjective_relation(model: KripkeModel, agent: Agent) -> Edges:
    """The agent's relation with its domain restricted to the agent's local states."""
    model.require_agent(agent)
    idx = model.index
    loc = idx.locals[agent]
    rows = [row if loc >> k & 1 else 0 for k, row in enumerate(idx.rows[agent])]
    return Edges(idx.order, idx.bit, rows)


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
    seeds = frozenset(seeds)
    for s in seeds:
        model.require_state(s)
    idx = model.index
    kept = idx.closure(idx.mask(seeds), model.agents)
    for a in sorted(model.agents):
        if not idx.locals[a] & kept:
            raise ModelError(f"pruning would empty the local states of agent {a}")
    return KripkeModel.from_index(idx.restricted(kept), model.meta)


def replicate_with_lineage(model: KripkeModel, tag: str) -> KripkeModel:
    """Isomorphic copy with `tag` appended to every state's lineage."""
    if tag not in LINEAGE_TAGS:
        raise ModelError(f"bad lineage tag: {tag!r}")
    idx = model.index
    return KripkeModel.from_index(idx.relabel([s.tagged(tag) for s in idx.order]), model.meta)
