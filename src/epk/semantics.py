"""Model checking: pointed satisfaction, agent-relative satisfaction, and
the presence atom underlying the agency modalities.

Evaluation is set-at-a-time (the labelling algorithm of Clarke, Emerson
and Sistla): `sat` computes the whole set of states where each subformula
holds, bottom-up, as a bitmask over the model's cached `ModelIndex`.  The
three `holds_*` entry points are tests on that mask.

`CertainAgent(i, j)` is a box over the presence atom "t has at least one
j-edge": it holds vacuously when i has no successors.  `PossibleAgent(i, j)`
is its diamond dual and is false with no successors.  The right index j of
either modality may name an agent not in the model: such an agent is simply
absent everywhere, so formulas about departed agents remain evaluable.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .formulas import (And, Believes, CertainAgent, Formula, Implies, Not, Or,
                       PossibleAgent, Prop)
from .model import Agent, KripkeModel, ModelError, StateId, pack


def presence_at(model: KripkeModel, j: Agent, state: StateId) -> bool:
    """True iff `state` has at least one j-edge; false for absent agents."""
    model.require_state(state)
    idx = model.index
    return bool(idx.present.get(j, 0) >> idx.bit[state] & 1)


def _box(rows: List[int], mask: int) -> int:
    """States all of whose successors lie in `mask`."""
    outside = ~mask
    return pack(not row & outside for row in rows)


def _diamond(rows: List[int], mask: int) -> int:
    """States with at least one successor in `mask`."""
    return pack(row & mask for row in rows)


def _children(f: Formula) -> Tuple[Formula, ...]:
    if isinstance(f, (Not, Believes)):
        return (f.sub,)
    if isinstance(f, (And, Or, Implies)):
        return (f.left, f.right)
    if isinstance(f, (Prop, CertainAgent, PossibleAgent)):
        return ()
    raise TypeError(f"not a formula: {f!r}")


def _check_node(model: KripkeModel, f: Formula) -> None:
    # The right index of C/P is deliberately exempt: see module docstring.
    if isinstance(f, Prop):
        if f.name not in model.props:
            raise ModelError(f"unknown proposition: {f.name}")
    elif isinstance(f, (Believes, CertainAgent, PossibleAgent)):
        model.require_agent(f.agent)


def sat(model: KripkeModel, f: Formula) -> int:
    """The states where `f` holds, as a bitmask over `model.index`.

    Walks the formula with an explicit stack, so nesting depth is bounded
    only by memory.  Intermediate results are keyed by node identity:
    hashing a deeply nested formula would itself recurse.  Unknown
    propositions and agents raise `ModelError`, the leftmost one first.
    """
    idx = model.index
    done: Dict[int, int] = {}
    stack = [(f, False)]
    while stack:
        g, ready = stack.pop()
        if id(g) in done:
            continue
        if not ready:
            _check_node(model, g)
            stack.append((g, True))
            stack.extend((c, False) for c in reversed(_children(g)))
            continue
        if isinstance(g, Prop):
            m = idx.valuation[g.name]
        elif isinstance(g, Not):
            m = idx.full ^ done[id(g.sub)]
        elif isinstance(g, And):
            m = done[id(g.left)] & done[id(g.right)]
        elif isinstance(g, Or):
            m = done[id(g.left)] | done[id(g.right)]
        elif isinstance(g, Implies):
            m = (idx.full ^ done[id(g.left)]) | done[id(g.right)]
        elif isinstance(g, Believes):
            m = _box(idx.rows[g.agent], done[id(g.sub)])
        elif isinstance(g, CertainAgent):
            m = _box(idx.rows[g.agent], idx.present.get(g.about, 0))
        else:
            m = _diamond(idx.rows[g.agent], idx.present.get(g.about, 0))
        done[id(g)] = m
    return done[id(f)]


def holds_at(model: KripkeModel, state: StateId, f: Formula) -> bool:
    """Truth of `f` at the pointed model (model, state)."""
    model.require_state(state)
    return bool(sat(model, f) >> model.index.bit[state] & 1)


def holds_for_agent(model: KripkeModel, agent: Agent, f: Formula) -> bool:
    """Truth of `f` at every local state of `agent` (the agent-relative reading)."""
    model.require_agent(agent)
    return not model.index.locals[agent] & ~sat(model, f)


def holds_globally(model: KripkeModel, f: Formula) -> bool:
    """Truth of `f` at every state of the model."""
    return sat(model, f) == model.index.full
