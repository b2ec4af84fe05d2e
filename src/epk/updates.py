"""The four ontological update operators, as pure model-to-model functions.

Truthful updates announce a real departure (offline) or arrival (online) to
everyone.  Untruthful updates split the model into an "act" region that only
the informed agents can see and a "shift" region housing the misinformed
agents' picture of the world, wired together by one-way cross edges.

All four are product updates of the model with a small action model (Baltag,
Moss and Solecki 1998), made by one kernel, `_product`.  A truthful update
has one event, which keeps the state names; a lie has two, "act" and
"shift".  Each update is its wiring: the event that holds each agent's local
states, and the event that its edges out of each event lead into.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from collections.abc import Iterable

from .formulas import CertainAgent
from .model import (LINEAGE_TAGS, STAY, Agent, KripkeModel, ModelError, ModelIndex, StateId,
                    Wiring, carrier, edge_count)
from .semantics import holds_for_agent

# A lie has one event per lineage tag, "act" and "shift".  Informed agents
# live in act and keep their edges there; the misinformed live in shift, and
# their edges out of act lead one way into it.  In shift everyone keeps their
# edges, except the target of an offline lie, which has none there.
INFORMED: Wiring = (0, (0, 1))
MISINFORMED: Wiring = (1, (1, 1))


UpdateResult = namedtuple("UpdateResult",
                          ("model", "discarded_states", "added_edges", "removed_edges"))
UpdateResult.__doc__ = """An updated model plus an audit diff against the input: the states it
discarded, and per agent the number of edges added and removed."""


def _edge_diff(before: KripkeModel, after: KripkeModel):
    """Edges added and removed per agent, counted on the rows: edges both
    models have are counted by carrying `after`'s rows into `before`'s
    numbering, which states only `after` has drop out of.  When both
    models share one numbering the rows compare as they are, and only
    then is a row list both share unchanged: under new names the same
    list holds other edges."""
    old_idx, new_idx = before.index, after.index
    same = new_idx.order is old_idx.order
    if same:
        to_old, carry = range(len(old_idx.order)), (lambda mask: mask)
    else:
        to_old = [old_idx.bit.get(s) for s in new_idx.order]
        carry = carrier([0 if k is None else 1 << k for k in to_old])
    added, removed = {}, {}
    for a in sorted(before.agents | after.agents):
        old, new = old_idx.rows.get(a), new_idx.rows.get(a)
        if new is old and same:
            added[a] = removed[a] = 0
            continue
        common = 0 if old is None or new is None else sum(
            (old[k] & carry(row)).bit_count()
            for k, row in zip(to_old, new) if k is not None and row)
        added[a], removed[a] = edge_count(new or []) - common, edge_count(old or []) - common
    return added, removed


def _product(model: KripkeModel, tags: tuple[str | None, ...],
             wiring: dict[Agent, Wiring],
             newcomer: Agent | None = None,
             new_locals: Iterable[StateId] = ()) -> UpdateResult:
    """The product update of `model` with an action model of one event per
    tag (Baltag, Moss and Solecki 1998), pruned to the copies reachable
    from every agent's local states.  A lone event tagged None keeps the
    state names.

    `wiring[a] = (home, links)`: agent a's local states lie in event
    `home`, and its edges out of event e lead into event `links[e]`, or
    nowhere where that is None.  A link never points to an earlier event.
    Agents left out of `wiring` are dropped.  A `newcomer` joins with the
    universal relation on the last event and `new_locals` as its local
    states there: it must be absent from `model`, and its local states
    known and not empty.

    Which copies survive is worked out on the input's masks, one event at
    a time: an event keeps the closure of its seeds under the agents that
    stay in it, and the images of those states under the other agents
    seed later events.  A newcomer's event, which its local states seed,
    is kept whole: the universal relation reaches every state.
    """
    idx = model.index
    if newcomer is not None:  # joins the input, so its rows are carried as any agent's
        if newcomer in idx.rows:
            raise ModelError(f"agent already present: {newcomer}")
        local = idx.mask(new_locals)
        if not local:
            raise ModelError(f"new agent {newcomer} needs a non-empty set of local states")
        last = len(tags) - 1
        idx = ModelIndex(idx.order, {**idx.rows, newcomer: [idx.full] * len(idx.order)},
                         idx.valuation, {**idx.locals, newcomer: local}, idx.bit)
        wiring = {**wiring, newcomer: (last, (None,) * last + (last,))}
    seeds = [0] * len(tags)
    for a, (home, _links) in wiring.items():
        seeds[home] |= idx.locals[a]
    kept = []
    for e in range(len(tags)):
        into = [[a for a, (_h, links) in wiring.items() if links[e] == f] for f in range(len(tags))]
        kept.append(idx.full if newcomer in into[e] else idx.closure(seeds[e], into[e]))
        for f in range(e + 1, len(tags)):
            seeds[f] |= idx.image(kept[e], into[f])
    after = KripkeModel(idx.product(tags, kept, wiring), model.meta)
    discarded = frozenset(s if tag is None else s.tagged(tag) for tag, m in zip(tags, kept)
                          if m != idx.full for s in idx.states_of(idx.full & ~m))
    return UpdateResult(after, discarded, *_edge_diff(model, after))


def update_offline(model: KripkeModel, j: Agent) -> UpdateResult:
    """Announce truthfully that agent j has gone offline.

    Drops j (and its whole relation) and prunes states no longer reachable
    from the remaining agents' local states.
    """
    model.require_agent(j)
    return _product(model, (None,), {a: STAY for a in model.index.rows if a != j})


def update_online(model: KripkeModel, j: Agent,
                  new_locals: Iterable[StateId]) -> UpdateResult:
    """Announce truthfully that agent j has come online with the given local
    states.  j gets the universal (hence equivalence) relation over all
    states: every one of its rows is the full mask.  Nothing else changes
    and no state is removed."""
    return _product(model, (None,), dict.fromkeys(model.index.rows, STAY), j, new_locals)


def lie_offline(model: KripkeModel, i: Agent, j: Agent) -> UpdateResult:
    """Agent i falsely announces that agent j has gone offline.

    Everyone except i and j is shifted into a replica where j has no edges;
    i and j stay in the act replica, from which the misinformed agents'
    edges lead one way into the shifted region.
    """
    model.require_agent(i)
    model.require_agent(j)
    if i == j:
        raise ModelError("liar and target must differ")
    for k in (i, j):
        if not holds_for_agent(model, k, CertainAgent(k, j)):
            warnings.warn(
                f"lie_offline: C[{k},{j}] does not hold before the lie; "
                "the informed agents' certainty of the target is not preserved",
                stacklevel=2)
    return _product(model, LINEAGE_TAGS, {**dict.fromkeys(model.index.rows, MISINFORMED),
                                          i: INFORMED, j: (0, (0, None))})


def lie_online(model: KripkeModel, i: Agent, j: Agent,
               new_locals: Iterable[StateId]) -> UpdateResult:
    """Agent i falsely announces that a (fictional) agent j has come online.

    Everyone except i is shifted into a replica where j exists with the
    universal relation; i stays in the act replica, which j never touches.
    `new_locals` name states of the input model and are mapped into the
    shifted replica.
    """
    model.require_agent(i)
    return _product(model, LINEAGE_TAGS,
                    {**dict.fromkeys(model.index.rows, MISINFORMED), i: INFORMED}, j, new_locals)
