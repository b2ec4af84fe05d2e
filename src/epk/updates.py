"""The four ontological update operators, as pure model-to-model functions.

Truthful updates announce a real departure (offline) or arrival (online) to
everyone.  Untruthful updates split the model into an "act" region that only
the informed agents can see and a "shift" region housing the misinformed
agents' picture of the world, wired together by one-way cross edges.  Both
lies are one kernel, `_split`, which differs between them only in who is
informed and in what happens to the target agent in the shift region.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import or_
from typing import Dict, FrozenSet, Iterable, List, Optional

from .formulas import CertainAgent
from .model import (Agent, Edge, KripkeModel, ModelError, StateId, positions,
                    prune_unreachable)
from .semantics import holds_for_agent

UPDATE_KINDS = ("offline", "online", "lie_offline", "lie_online")


@dataclass(frozen=True)
class UpdateSpec:
    """Parameters of one ontological update."""

    kind: str
    target: Agent
    liar: Optional[Agent] = None
    new_locals: Optional[FrozenSet[StateId]] = None

    def __post_init__(self):
        if self.kind not in UPDATE_KINDS:
            raise ModelError(f"unknown update kind: {self.kind}")
        needs_liar = self.kind in ("lie_offline", "lie_online")
        if needs_liar != (self.liar is not None):
            raise ModelError(f"update {self.kind}: liar {'required' if needs_liar else 'not allowed'}")
        needs_locals = self.kind in ("online", "lie_online")
        if needs_locals != (self.new_locals is not None):
            raise ModelError(f"update {self.kind}: new_locals {'required' if needs_locals else 'not allowed'}")


@dataclass(frozen=True)
class UpdateResult:
    """An updated model plus an audit diff against the input."""

    model: KripkeModel
    discarded_states: FrozenSet[StateId]
    added_edges: Dict[Agent, int]
    removed_edges: Dict[Agent, int]


def _edge_diff(before: KripkeModel, after: KripkeModel):
    # Models with no state in common, such as a lie's input and output,
    # have no edge in common either.
    disjoint = before.states.isdisjoint(after.states)
    added, removed = {}, {}
    for a in sorted(before.agents | after.agents):
        old = before.relations.get(a, frozenset())
        new = after.relations.get(a, frozenset())
        if new is old:
            added[a] = removed[a] = 0
        elif disjoint:
            added[a], removed[a] = len(new), len(old)
        else:
            added[a], removed[a] = len(new - old), len(old - new)
    return added, removed


def _finish(before: KripkeModel, after: KripkeModel,
            discarded: Iterable[StateId]) -> UpdateResult:
    added, removed = _edge_diff(before, after)
    return UpdateResult(model=after, discarded_states=frozenset(discarded),
                        added_edges=added, removed_edges=removed)


def apply_update(model: KripkeModel, spec: UpdateSpec) -> UpdateResult:
    if spec.kind == "offline":
        return update_offline(model, spec.target)
    if spec.kind == "online":
        return update_online(model, spec.target, spec.new_locals)
    if spec.kind == "lie_offline":
        return lie_offline(model, spec.liar, spec.target)
    return lie_online(model, spec.liar, spec.target, spec.new_locals)


def update_offline(model: KripkeModel, j: Agent) -> UpdateResult:
    """Announce truthfully that agent j has gone offline.

    Drops j (and its whole relation) and prunes states no longer reachable
    from the remaining agents' local states.
    """
    model.require_agent(j)
    agents = model.agents - {j}
    interim = KripkeModel(
        states=model.states,
        agents=agents,
        props=model.props,
        relations={a: model.relations[a] for a in agents},
        valuation=model.valuation,
        locals={a: model.locals[a] for a in agents},
        meta=dict(model.meta),
    )
    seeds = frozenset().union(*(interim.locals[a] for a in agents)) if agents else frozenset()
    pruned = prune_unreachable(interim, seeds)
    return _finish(model, pruned, model.states - pruned.states)


def update_online(model: KripkeModel, j: Agent,
                  new_locals: Iterable[StateId]) -> UpdateResult:
    """Announce truthfully that agent j has come online with the given local
    states.  j gets the universal (hence equivalence) relation over all
    states; nothing else changes and no state is removed."""
    if j in model.agents:
        raise ModelError(f"agent already present: {j}")
    new_locals = frozenset(new_locals)
    if not new_locals:
        raise ModelError(f"new agent {j} needs a non-empty set of local states")
    for s in new_locals:
        model.require_state(s)
    relations = dict(model.relations)
    relations[j] = frozenset(product(model.states, model.states))
    locals_ = dict(model.locals)
    locals_[j] = new_locals
    after = KripkeModel(
        states=model.states,
        agents=model.agents | {j},
        props=model.props,
        relations=relations,
        valuation=model.valuation,
        locals=locals_,
        meta=dict(model.meta),
    )
    return _finish(model, after, ())


def _split(model: KripkeModel, informed: FrozenSet[Agent], dropped: Optional[Agent] = None,
           newcomer: Optional[Agent] = None,
           new_locals: FrozenSet[StateId] = frozenset()) -> UpdateResult:
    """The two-copy split both lies share: product update with a two-event
    action model (Baltag, Moss and Solecki 1998), pruned to the states
    reachable from every agent's local states.

    Every state gets an "act" and a "shift" copy.  Informed agents keep
    their edges and local states in the act copy.  Every other agent's
    local states move to the shift copy, and its edges from act states
    lead one way into it.  In the shift copy every agent keeps its edges
    except `dropped`, which has none there; a `newcomer` joins with the
    universal relation on the shift copy and the local states `new_locals`
    there.

    Which copies survive pruning is worked out on the input's successor
    masks before any edge is made, so only kept edges are built.
    """
    idx = model.index
    act = [s.tagged("act") for s in idx.order]
    shift = [s.tagged("shift") for s in idx.order]
    agents = sorted(model.agents)
    misinformed = [a for a in agents if a not in informed]
    newcomer_locals = idx.mask(new_locals)

    # Act states are reached only from act states; shift states from the
    # misinformed agents' local states, along their edges out of the kept
    # act states, and from the newcomer's local states.
    act_kept = idx.closure(reduce(or_, (idx.locals[a] for a in informed), 0), informed)
    shift_seeds = (reduce(or_, (idx.locals[a] for a in misinformed), 0)
                   | idx.image(act_kept, misinformed) | newcomer_locals)
    if newcomer is not None and shift_seeds:
        shift_kept = idx.full  # the universal relation reaches every shift state
    else:
        shift_kept = idx.closure(shift_seeds, [a for a in agents if a != dropped])

    def pick(copy, mask: int) -> List[StateId]:
        return [copy[k] for k in positions(mask)]

    def edges(rows, kept: int, frm, to) -> List[Edge]:
        return [(frm[k], to[t]) for k in positions(kept) for t in positions(rows[k])]

    def copies(mask: int) -> FrozenSet[StateId]:
        return frozenset(pick(act, mask & act_kept) + pick(shift, mask & shift_kept))

    relations = {}
    locals_ = {}
    for a in agents:
        rows = idx.rows[a]
        part = edges(rows, act_kept, act, act if a in informed else shift)
        if a != dropped:
            part += edges(rows, shift_kept, shift, shift)
        relations[a] = frozenset(part)
        locals_[a] = frozenset(pick(act if a in informed else shift, idx.locals[a]))
    if newcomer is not None:
        kept = pick(shift, shift_kept)
        relations[newcomer] = frozenset(product(kept, kept))
        locals_[newcomer] = frozenset(pick(shift, newcomer_locals))
    after = KripkeModel(
        states=copies(idx.full),
        agents=frozenset(relations),
        props=model.props,
        relations=relations,
        valuation={p: copies(m) for p, m in idx.valuation.items()},
        locals=locals_,
        meta=dict(model.meta),
    )
    discarded = pick(act, idx.full & ~act_kept) + pick(shift, idx.full & ~shift_kept)
    return _finish(model, after, discarded)


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
    return _split(model, informed=frozenset({i, j}), dropped=j)


def lie_online(model: KripkeModel, i: Agent, j: Agent,
               new_locals: Iterable[StateId]) -> UpdateResult:
    """Agent i falsely announces that a (fictional) agent j has come online.

    Everyone except i is shifted into a replica where j exists with the
    universal relation; i stays in the act replica, which j never touches.
    `new_locals` name states of the input model and are mapped into the
    shifted replica.
    """
    model.require_agent(i)
    if j in model.agents:
        raise ModelError(f"agent already present: {j}")
    new_locals = frozenset(new_locals)
    if not new_locals:
        raise ModelError(f"new agent {j} needs a non-empty set of local states")
    for s in new_locals:
        model.require_state(s)
    return _split(model, informed=frozenset({i}), newcomer=j, new_locals=new_locals)
