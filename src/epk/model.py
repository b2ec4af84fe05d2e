"""Kripke models with per-agent local states, plus the graph utilities
(successor lookup, reachability closure, product with an action model's
events, pruning, tagged replication) that the update operators use.

A model is its `ModelIndex`: its states numbered in sorted order, every
agent's relation as successor rows (one bitmask per state over that
numbering) and every set of states as a mask.  `KripkeModel(index, meta)`
is the one constructor and the one check of names, local states and meta,
and `KripkeModel.build` the one checker of plain values and the one
reader of state names and edges.  Inside the package a model is read
through its index: loading, updates, pruning, frame checks, saving, DOT
export and `show` pass rows and masks along.
`valuation`, `locals` and `relations` are views for callers outside it,
built on first read; `model.relations[a]` is a read-only set of (s, t)
edges over the rows, whose size is `edge_count` of the rows and whose
membership test is a bit test.

Models are immutable values: every operation returns a new model and never
mutates its input.  They are compared by value and cannot be hashed.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence, Set
from functools import cached_property, reduce
from itertools import chain, compress, count, groupby, repeat
from operator import itemgetter, or_
from types import MappingProxyType

from .formulas import IDENT

Agent = str
Prop = str

LINEAGE_TAGS = ("act", "shift")


class ModelError(ValueError):
    """Raised when a model invariant is violated or an unknown entity is named."""


class StateId(tuple):
    """A state: its base name plus the sequence of replica tags that
    produced it, held as the pair `(base, lineage)`.

    Original states have an empty lineage; each untruthful update appends
    one tag ("act" or "shift").  Hash, equality and order are the pair's,
    done in C: states sort by base, then lineage, and a state equals the
    plain pair, `StateId("1") == ("1", ())`.  Pickling and copying build
    the state again through `__new__`, which checks it.
    """

    __slots__ = ()

    def __new__(cls, base: str, lineage: Iterable[str] = ()) -> "StateId":
        lineage = tuple(lineage)  # a list would make a state that cannot be hashed
        if not base or "@" in base:
            raise ModelError(f"bad state base name: {base!r}")
        for tag in lineage:
            if tag not in LINEAGE_TAGS:
                raise ModelError(f"bad lineage tag: {tag!r}")
        return tuple.__new__(cls, (base, lineage))

    base = property(itemgetter(0))
    lineage = property(itemgetter(1))

    def __reduce__(self):  # at every pickle protocol, through `__new__`
        return type(self), tuple(self)

    def tagged(self, tag: str) -> "StateId":
        return StateId(self.base, self.lineage + (tag,))

    @property
    def name(self) -> str:
        return "@".join((self.base,) + self.lineage)

    @classmethod
    def parse(cls, name: str) -> "StateId":
        if not isinstance(name, str):
            raise ModelError(f"bad state name: {name!r}")
        parts = name.split("@")
        return cls(parts[0], parts[1:])

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"StateId({self.name!r})"


Edge = tuple[StateId, StateId]


def _check_token(name: str, what: str) -> str:
    if not (isinstance(name, str) and IDENT.fullmatch(name)):
        raise ModelError(f"bad {what} name: {name!r}")
    return name


_NAME = (str, StateId)  # a state may be named by either


def _collection(items) -> bool:
    """Whether `items` can hold names: it is iterable, and neither a
    string, whose characters would read as names, nor a mapping, whose
    keys would."""
    return isinstance(items, Iterable) and not isinstance(items, (str, Mapping))


def _names(items, where: str, kinds=_NAME) -> list:
    """`items` as a list, refusing anything but a collection of names of `kinds`."""
    items = list(items) if _collection(items) else None
    if items is None or not all(map(isinstance, items, repeat(kinds))):
        raise ModelError(f"{where} must be a list of strings")
    return items


# The types of a target list or a pair, and of a name, read without a search.
_PLAIN, _PLAIN_NAME = {list, tuple}, set(_NAME)


def _relation_fault(relation, where: str) -> None:
    """Refuse the first entry of `relation` that is not a source naming a
    list of names, or, in a list of pairs, a pair of names."""
    if isinstance(relation, Mapping):
        for s, targets in relation.items():
            if not (isinstance(s, _NAME) and _collection(targets)
                    and all(map(isinstance, targets, repeat(_NAME)))):
                raise ModelError(f"{where}.{s} must be a list of state names")
    else:
        for k, pair in enumerate(relation):
            if not (isinstance(pair, Sequence) and not isinstance(pair, str) and len(pair) == 2
                    and all(map(isinstance, pair, repeat(_NAME)))):
                raise ModelError(f"{where}[{k}] must be a pair of state names [s, t]")


def _once(items: Iterable, what: str) -> list:
    """`items` as a list, refusing the first one listed twice."""
    items = list(items)
    if len(set(items)) < len(items):
        seen = set()
        twice = next(x for x in items if x in seen or seen.add(x))
        raise ModelError(f"{what} {twice} is listed twice")
    return items


def pack(flags: Iterable[object]) -> int:
    """The bitmask whose bit k is set iff the k-th flag is truthy."""
    return int("".join("1" if f else "0" for f in flags)[::-1] or "0", 2)


# Bytes of binary digits to bytes of 0s and 1s, for `itertools.compress`.
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def positions(mask: int) -> Iterator[int]:
    """The numbers of the bits set in `mask`, lowest first.

    Stepping from one bit to the next costs a few operations on the whole
    mask, so a mask with many bits set is read from its binary digits
    instead: one pass in C, O(|mask|) in all.  Reading the digits pays off
    from about this many bits set, measured on random masks of each width
    (median of three scans):

        width       8  16  32  64  128  1024  4096  16384
        bits set    7   7   7  11   14    96   224    384

    so the digits are read past max(7, |mask|/8), at most 256 bits set."""
    if mask.bit_count() > max(7, min(256, mask.bit_length() >> 3)):
        return compress(count(), bin(mask)[:1:-1].encode().translate(_DIGITS))
    return _step(mask)


def _step(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def edge_count(rows: list[int]) -> int:
    """The number of edges in successor `rows`.  Where every non-empty row
    is one mask, as in a newcomer's rows after either arrival update (a
    lie leaves the act copies' rows empty), that mask is popcounted once.
    The rows are counted only when the first and last non-empty rows are
    one object, so other rows cost no more than their popcounts; and
    `list.count` compares by identity first, so finding one shared mask
    costs a pointer test per row, not a popcount of |S| bits."""
    first = next(filter(None, rows), 0)
    if first and first is next(filter(None, reversed(rows))):
        empty = rows.count(0)
        if rows.count(first) == len(rows) - empty:
            return first.bit_count() * (len(rows) - empty)
    return sum(map(int.bit_count, rows))


def carrier(to: list[int]) -> Callable[[int], int]:
    """The map of masks from one numbering to another, where `to[k]` is the
    one-bit mask of state k's new number, or 0 for a state left out.
    Results are kept per mask: rows repeat (every row of a universal
    block is the same mask), and each distinct one is carried once."""
    done: dict[int, int] = {}

    def carry(mask: int) -> int:
        out = done.get(mask)
        if out is None:
            out = 0
            for k in positions(mask):
                out |= to[k]
            done[mask] = out
        return out

    return carry


def _state_text(s) -> str:
    """The name of the state `s` is, if it is a (base, lineage) pair, or
    else the text of `s`."""
    try:
        state = StateId(*s)
        return state.name if state == s else str(s)
    except (TypeError, ValueError):  # no pair, or not a state's (ModelError)
        return str(s)


# An agent's (home, links) in `ModelIndex.product`; STAY keeps it in a lone event.
Wiring = tuple[int, tuple[int | None, ...]]
STAY: Wiring = (0, (0,))


class ModelIndex:
    """A model's states numbered in sorted order, with every set of states
    held as a bitmask over that numbering: bit k stands for `order[k]`.

    `rows[a][k]` is the mask of the a-successors of state k; the rows are
    the model's relations.  `valuation` and `locals` hold the model's sets
    of the same names as masks, and `present[a]` is the mask of states
    with at least one a-edge.  Nothing here is changed after it is built,
    so models may share rows and whole indexes.
    """

    def __init__(self, order: tuple[StateId, ...], rows: dict[Agent, list[int]],
                 valuation: dict[Prop, int], locals: dict[Agent, int],
                 bit: dict[StateId, int] | None = None):
        self.order = order
        self.bit: dict[StateId, int] = dict(zip(order, range(len(order)))) if bit is None else bit
        self.full = (1 << len(order)) - 1
        self.rows = rows
        self.valuation = valuation
        self.locals = locals

    @cached_property
    def present(self) -> dict[Agent, int]:
        return {a: pack(row) for a, row in self.rows.items()}

    def mask(self, states: Iterable[StateId]) -> int:
        """The bitmask of `states`; the first that is not numbered here
        raises `ModelError`, which calls a string a name, not a state."""
        bit, m = self.bit, 0
        for s in states:
            k = bit.get(s)
            if k is None:
                raise ModelError(f"{s!r} is a state name, not a StateId"
                                 if isinstance(s, str) else f"unknown state: {_state_text(s)}")
            m |= 1 << k
        return m

    def states_of(self, mask: int) -> frozenset[StateId]:
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

    def product(self, tags: tuple[str | None, ...], kept: list[int],
                agents: Mapping[Agent, Wiring]) -> "ModelIndex":
        """The index of the copies `kept` of a product of this index with
        one event per tag: the one renumbering of states.

        Copy e of state k is kept iff bit k of `kept[e]` is set, and is
        named `order[k]` tagged `tags[e]`, or `order[k]` itself in an event
        tagged None.  `agents[a] = (home, links)` puts a's local states in
        event `home`, and its edges out of event e into event `links[e]`,
        or nowhere where that is None.  The kept copies must hold every
        edge so placed: each row is carried whole.

        A lone event tagged None that keeps every state shares the input's
        numbering, masks and staying rows.  Otherwise the copies are
        numbered in sorted order and each event's rows are carried by one
        `carrier`, so each distinct row is carried once."""
        order, n = self.order, len(self.order)
        if tags == (None,) and kept[0] == self.full:
            rows = {a: self.rows[a] if links == (0,) else [0] * n
                    for a, (_home, links) in agents.items()}
            return ModelIndex(order, rows, self.valuation, {a: self.locals[a] for a in agents},
                              self.bit)
        copies = sorted([(order[k] if tag is None else order[k].tagged(tag), k, e)
                         for e, tag in enumerate(tags) for k in positions(kept[e])],
                        key=itemgetter(0))
        to = [[0] * n for _ in tags]
        for pos, (_s, k, e) in enumerate(copies):
            to[e][k] = 1 << pos
        carry = [carrier(t) for t in to]
        rows: dict[Agent, list[int]] = {}
        for a, (_home, links) in agents.items():
            old, into = self.rows[a], [None if f is None else carry[f] for f in links]
            rows[a] = [0 if into[e] is None else into[e](old[k]) for _s, k, e in copies]
        return ModelIndex(
            tuple(c[0] for c in copies), rows,
            {p: reduce(or_, (c(m) for c in carry)) for p, m in self.valuation.items()},
            {a: carry[home](self.locals[a]) for a, (home, _links) in agents.items()})

    def closure(self, mask: int, agents: Iterable[Agent]) -> int:
        """The smallest superset of `mask` closed under the agents' edges.
        The walk stops once every state is seen: one step along a universal
        relation reaches them all."""
        agents = list(agents)
        seen = frontier = mask
        while frontier and seen != self.full:
            frontier = self.image(frontier, agents) & ~seen
            seen |= frontier
        return seen


class Edges(Set):
    """One relation as a read-only set of (s, t) edges, read off successor
    rows over a numbering of states.

    `len` is `edge_count` and `in` a bit test; iterating yields the edges in
    sorted order, made as they are asked for.  Set operations with other
    sets return frozensets.
    """

    __slots__ = ("_order", "_bit", "_rows")

    def __init__(self, order: tuple[StateId, ...], bit: dict[StateId, int], rows: list[int]):
        self._order, self._bit, self._rows = order, bit, rows

    def __len__(self) -> int:
        return edge_count(self._rows)

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
    def _from_iterable(cls, it) -> frozenset[Edge]:
        return frozenset(it)

    def __repr__(self) -> str:
        return f"Edges({list(self)!r})"


_source, _target = itemgetter(0), itemgetter(1)


def read_rows(relation, one: dict, n: int, made: dict[tuple, int]) -> list[int]:
    """The successor rows of `relation` over n numbered states: the
    relation is a mapping {s: [t, ...]} or an iterable of (s, t) pairs, and
    `one` holds the one-bit mask of each state's number.  A KeyError names
    the first endpoint `one` lacks.

    `made` keeps the row of each target list already read, keyed by its
    contents: rows repeat (every row of a universal block is the same
    list), and each distinct one is made, and held, once.  Consecutive
    pairs with one source are read as one target list."""
    row = [0] * n
    if isinstance(relation, Mapping):
        runs = relation.items()
    else:
        runs = ((s, map(_target, pairs)) for s, pairs in groupby(relation, _source))
    for s, targets in runs:
        k = one[s].bit_length() - 1
        key = tuple(targets)
        mask = made.get(key)
        if mask is None:  # the targets are ORed in C
            mask = made[key] = reduce(or_, map(one.__getitem__, key), 0)
        row[k] = row[k] | mask if row[k] else mask  # a source may have several runs
    return row


class KripkeModel:
    """An immutable Kripke model: states, agents, propositions, per-agent
    accessibility relations, a valuation, and per-agent local states, all
    held in `index`.

    `relations` maps each agent to a lazy `Edges` view of its successor
    rows; `valuation` and `locals` map names to frozensets of states.
    These views, `states`, `agents` and `props` are built on first read;
    `meta` maps strings to strings.  Every mapping is read-only, and
    pickling and copying carry the index and `meta` alone, whatever has
    been read.  Equality compares the index, not `meta`.  Models hold
    dicts, so hashing is switched off.
    """

    __hash__ = None

    meta: Mapping[str, str]
    index: ModelIndex

    def __init__(self, index: ModelIndex, meta: Mapping[str, str] | None = None):
        """The model whose states, relations, valuation and local states
        `index` holds; its agents are the keys of `index.rows` and its
        propositions those of `index.valuation`.  This is the one check of
        names, local states and meta: agent and proposition names are
        identifiers of the formula grammar (`formulas.IDENT`), so a formula
        can name each of them, and `index.locals` holds one non-empty mask
        per agent.  The masks are taken to lie within the states."""
        for a in index.rows:
            _check_token(a, "agent")
        for p in index.valuation:
            _check_token(p, "proposition")
        if index.locals.keys() != index.rows.keys():
            raise ModelError("locals must have exactly one entry per agent")
        for a in index.rows:
            if not index.locals[a]:
                raise ModelError(f"local states of agent {a} must be non-empty")
        meta = {} if meta is None else meta
        if not isinstance(meta, Mapping) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in meta.items()):
            raise ModelError("meta must map strings to strings")
        vars(self).update(index=index, meta=MappingProxyType(dict(meta)))

    def __reduce__(self):  # the index and meta alone, never a view read from them
        return type(self), (self.index, dict(self.meta))

    @classmethod
    def build(cls, states, agents, props, relations, valuation, locals, meta=None):
        """The validated model of plain values, and the one check of their
        shapes.  States and every mention of one are names or `StateId`s,
        agents and propositions names; each relation is a mapping
        {s: [t, ...]} or an iterable of (s, t) pairs.  A value of another
        shape is a `ModelError` naming its field (`states`, `locals.a`,
        `relations.a.1`): a string is not read as its characters, nor a
        mapping as its keys.  Of what the index cannot show, a state, agent
        or proposition listed twice is refused, not merged, and `agents`
        and `props` must be the keys of `relations` and `valuation`; the
        constructor checks the rest.

        Each state is parsed once and given its bit in the sorted
        numbering, and each source's targets are ORed into its row: no
        edge object is made.  The types of a relation's values and names
        are tested in C, a target list's names once per distinct list; a
        fault is looked for only once one is found."""
        # `parse` calls a state that is not a string a bad state name.
        ids = _once((x if isinstance(x, StateId) else StateId.parse(x)
                     for x in _names(states, "states", object)), "state")
        agents = _once(_names(agents, "agents", str), "agent")
        props = _once(_names(props, "props", str), "proposition")
        for field, named in (("relations", relations), ("valuation", valuation),
                             ("locals", locals)):
            if not isinstance(named, Mapping):
                raise ModelError(f"{field} must be a mapping")
        if set(relations) != set(agents):
            raise ModelError("relations must have exactly one entry per agent")
        if set(valuation) != set(props):
            raise ModelError("valuation must have exactly one entry per proposition")
        order = tuple(sorted(ids))
        one = {}
        for k, s in enumerate(order):
            one[s] = one[s.name] = 1 << k
        made: dict[tuple, int] = {}

        def each(field, named, read, message):
            out = {}
            for name, value in named.items():
                try:
                    out[name] = read(value, f"{field}.{name}")
                except KeyError as e:
                    raise ModelError(message.format(name, e.args[0])) from None
            return out

        def mask(names, where) -> int:
            return reduce(or_, map(one.__getitem__, _names(names, where)), 0)

        def rows(relation, where) -> list[int]:
            # The types are tested in C; a name is tested by looking it up.
            if isinstance(relation, Mapping):
                plain = (set(map(type, relation.values())) <= _PLAIN
                         and set(map(type, relation)) <= _PLAIN_NAME)
            elif _collection(relation):
                relation = list(relation)
                plain = (set(map(type, relation)) <= _PLAIN and set(map(len, relation)) <= {2}
                         and set(map(type, chain.from_iterable(relation))) <= _PLAIN_NAME)
            else:
                raise ModelError(f"{where} must be an adjacency map or a list of [s, t] pairs")
            try:
                if not plain:
                    _relation_fault(relation, where)
                return read_rows(relation, one, len(order), made)
            except (KeyError, TypeError):  # an undeclared name, or one of another type
                _relation_fault(relation, where)
                raise

        successors = each("relations", relations, rows, "relations.{} uses undeclared state {}")
        # A target of another type, in an adjacency map: a pair's are tested above.
        if not set(map(type, chain.from_iterable(made))) <= _PLAIN_NAME:
            for a, relation in relations.items():
                _relation_fault(relation, f"relations.{a}")
        return cls(ModelIndex(
            order, successors,
            each("valuation", valuation, mask, "valuation of {} names undeclared state {}"),
            each("locals", locals, mask, "local state {1} of agent {0} is undeclared")), meta)

    @cached_property
    def states(self) -> frozenset[StateId]:
        return frozenset(self.index.order)

    @cached_property
    def agents(self) -> frozenset[Agent]:
        return frozenset(self.index.rows)

    @cached_property
    def props(self) -> frozenset[Prop]:
        return frozenset(self.index.valuation)

    @cached_property
    def relations(self) -> Mapping[Agent, Edges]:
        idx = self.index
        return MappingProxyType({a: Edges(idx.order, idx.bit, row) for a, row in idx.rows.items()})

    @cached_property
    def valuation(self) -> Mapping[Prop, frozenset[StateId]]:
        idx = self.index
        return MappingProxyType({p: idx.states_of(m) for p, m in idx.valuation.items()})

    @cached_property
    def locals(self) -> Mapping[Agent, frozenset[StateId]]:
        idx = self.index
        return MappingProxyType({a: idx.states_of(m) for a, m in idx.locals.items()})

    def __setattr__(self, name, value):
        raise AttributeError(f"KripkeModel is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"KripkeModel is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, KripkeModel):
            return NotImplemented
        # Equal state sets are numbered alike, so the masks compare directly.
        a, b = self.index, other.index
        return (a.order == b.order and a.rows == b.rows and a.valuation == b.valuation
                and a.locals == b.locals)

    def __repr__(self) -> str:
        return (f"KripkeModel(states={[s.name for s in self.index.order]}, "
                f"agents={sorted(self.agents)}, props={sorted(self.props)}, "
                f"edges={ {a: edge_count(self.index.rows[a]) for a in sorted(self.agents)} })")

    def require_agent(self, agent: Agent) -> None:
        if agent not in self.index.rows:
            raise ModelError(f"unknown agent: {agent}")


def subjective_relation(model: KripkeModel, agent: Agent) -> Edges:
    """The agent's relation with its domain restricted to the agent's local states."""
    model.require_agent(agent)
    idx = model.index
    loc = idx.locals[agent]
    rows = [row if loc >> k & 1 else 0 for k, row in enumerate(idx.rows[agent])]
    return Edges(idx.order, idx.bit, rows)


def reachable_from(model: KripkeModel, seeds: Iterable[StateId],
                   agents: Iterable[Agent]) -> frozenset[StateId]:
    """Smallest superset of `seeds` closed under the given agents' edges."""
    idx = model.index
    seeds = idx.mask(seeds)  # an unknown state is reported before an unknown agent
    agents = frozenset(agents)
    for a in agents:
        model.require_agent(a)
    return idx.states_of(idx.closure(seeds, agents))


def prune_unreachable(model: KripkeModel, seeds: Iterable[StateId]) -> KripkeModel:
    """Drop every state not reachable from `seeds` via any agent's edges.

    Fails if pruning would empty some agent's local-state set: that signals
    a mis-specified update, not a repairable condition.
    """
    idx = model.index
    kept = idx.closure(idx.mask(seeds), model.agents)
    for a in sorted(model.agents):
        if not idx.locals[a] & kept:
            raise ModelError(f"pruning would empty the local states of agent {a}")
    return KripkeModel(idx.product((None,), [kept], dict.fromkeys(idx.rows, STAY)), model.meta)


def replicate_with_lineage(model: KripkeModel, tag: str) -> KripkeModel:
    """Isomorphic copy with `tag` appended to every state's lineage."""
    if tag not in LINEAGE_TAGS:
        raise ModelError(f"bad lineage tag: {tag!r}")
    idx = model.index
    return KripkeModel(idx.product((tag,), [idx.full], dict.fromkeys(idx.rows, STAY)), model.meta)
