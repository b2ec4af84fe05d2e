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
from operator import or_
from typing import Dict, FrozenSet, Iterable, List, Optional

from .formulas import CertainAgent
from .model import Agent, KripkeModel, ModelError, ModelIndex, StateId, carrier, state_key
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
    """Edges added and removed per agent, counted on the rows: edges both
    models have are counted by carrying `after`'s rows into `before`'s
    numbering, which states only `after` has drop out of.  When both
    models share one numbering the rows compare as they are."""
    old_idx, new_idx = before.index, after.index
    if new_idx.order is old_idx.order:
        to_old, carry = range(len(old_idx.order)), (lambda mask: mask)
    else:
        to_old = [old_idx.bit.get(s) for s in new_idx.order]
        carry = carrier([0 if k is None else 1 << k for k in to_old])
    added, removed = {}, {}
    for a in sorted(before.agents | after.agents):
        old, new = old_idx.rows.get(a), new_idx.rows.get(a)
        if new is old:
            added[a] = removed[a] = 0
            continue
        common = 0 if old is None or new is None else sum(
            (old[k] & carry(row)).bit_count()
            for k, row in zip(to_old, new) if k is not None and row)
        n_old, n_new = len(before.relations.get(a, ())), len(after.relations.get(a, ()))
        added[a], removed[a] = n_new - common, n_old - common
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
    idx = model.index
    agents = sorted(model.agents - {j})
    interim = ModelIndex(idx.order, {a: idx.rows[a] for a in agents}, idx.valuation,
                         {a: idx.locals[a] for a in agents}, idx.bit)
    kept = interim.closure(reduce(or_, interim.locals.values(), 0), agents)
    after = KripkeModel(interim.restricted(kept), model.meta)
    return _finish(model, after, idx.states_of(idx.full & ~kept))


def update_online(model: KripkeModel, j: Agent,
                  new_locals: Iterable[StateId]) -> UpdateResult:
    """Announce truthfully that agent j has come online with the given local
    states.  j gets the universal (hence equivalence) relation over all
    states: every one of its rows is the full mask.  Nothing else changes
    and no state is removed."""
    if j in model.agents:
        raise ModelError(f"agent already present: {j}")
    new_locals = frozenset(new_locals)
    if not new_locals:
        raise ModelError(f"new agent {j} needs a non-empty set of local states")
    for s in new_locals:
        model.require_state(s)
    idx = model.index
    after = KripkeModel(
        ModelIndex(idx.order, {**idx.rows, j: [idx.full] * len(idx.order)}, idx.valuation,
                   {**idx.locals, j: idx.mask(new_locals)}, idx.bit),
        model.meta)
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
    masks first; then each kept copy's row is the input row carried into
    the output's numbering.
    """
    idx = model.index
    n = len(idx.order)
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

    # Number the kept copies in sorted order; act_at[k] and shift_at[k]
    # are the one-bit masks of state k's copies there (0 when not kept).
    copies = sorted([(s.tagged("act"), 0, k) for k, s in enumerate(idx.order) if act_kept >> k & 1]
                    + [(s.tagged("shift"), 1, k) for k, s in enumerate(idx.order)
                       if shift_kept >> k & 1],
                    key=lambda c: state_key(c[0]))
    act_at, shift_at = [0] * n, [0] * n
    for pos, (_s, side, k) in enumerate(copies):
        (shift_at if side else act_at)[k] = 1 << pos
    to_act, to_shift = carrier(act_at), carrier(shift_at)

    rows: Dict[Agent, List[int]] = {}
    locals_: Dict[Agent, int] = {}
    for a in agents:
        old = idx.rows[a]
        into = to_act if a in informed else to_shift
        rows[a] = [(0 if a == dropped else to_shift(old[k])) if side else into(old[k])
                   for (_s, side, k) in copies]
        locals_[a] = into(idx.locals[a])
    if newcomer is not None:
        kept = to_shift(shift_kept)
        rows[newcomer] = [kept if side else 0 for (_s, side, _k) in copies]
        locals_[newcomer] = to_shift(newcomer_locals)
    after = KripkeModel(
        ModelIndex(tuple(c[0] for c in copies), rows,
                   {p: to_act(m) | to_shift(m) for p, m in idx.valuation.items()}, locals_),
        model.meta)
    discarded = ([s.tagged("act") for s in idx.states_of(idx.full & ~act_kept)]
                 + [s.tagged("shift") for s in idx.states_of(idx.full & ~shift_kept)])
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
