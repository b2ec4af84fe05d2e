"""Model checking: pointed satisfaction, agent-relative satisfaction, and
the presence atom underlying the agency modalities.

Evaluation is set-at-a-time (the labelling algorithm of Clarke, Emerson
and Sistla): `sat` computes the set of states where each subformula holds,
bottom-up, as a bitmask over the model's index, `model.index`.  It is also
demand-driven, like the local model checking of Stirling and Walker: each
subformula is decided only where its truth is asked, at the states that
the boxes above it reach from the states the query is about.  `holds_at`
asks about one state, `holds_for_agent` about the agent's local states and
`holds_globally` about every state, so a pointed query costs the states
near its point, not |S|.  The two universal checks stop at their least
counterexample: they ask the least state of their scope alone before
labelling the rest, so a check that fails there costs a pointed query.

`CertainAgent(i, j)` is a box over the presence atom "t has at least one
j-edge": it holds vacuously when i has no successors.  `PossibleAgent(i, j)`
is its diamond dual and is false with no successors.  Only the diamond has a
kernel: a box, `B[i] g` or `C[i,j]`, holds where no successor lies outside
its operand, so it is labelled as the complement of the diamond of the
operand's complement (box f = ~diamond ~f).  The right index j of
either modality may name an agent not in the model: such an agent is simply
absent everywhere, so formulas about departed agents remain evaluable.
"""

from __future__ import annotations

from .formulas import (And, Believes, CertainAgent, Formula, Implies, Not, Or,
                       PossibleAgent, Prop)
from .model import Agent, KripkeModel, ModelError, StateId, pack, positions


def presence_at(model: KripkeModel, j: Agent, state: StateId) -> bool:
    """True iff `state` has at least one j-edge; false for absent agents."""
    return bool(model.index.present.get(j, 0) & model.index.mask((state,)))


# A box or diamond whose need holds more than this share of the states tests
# every row at once.  Testing the rows of the need's states one by one costs
# more per state than that one pass: on random sparse models of 1000 and
# 5000 states, a box on its need plus the need's image cost as much as the
# pass at about a third of the states, a diamond at a half to two thirds.
DENSE_SHARE = 1 / 3


def _diamond(rows: list[int], mask: int, need: int | None) -> int:
    """The states of `need` (every state if None) with at least one
    successor in `mask`."""
    if need is None:
        return pack(row & mask for row in rows)
    return sum(1 << k for k in positions(need) if rows[k] & mask)


_BINARY = frozenset((And, Or, Implies))
_LISTED = object()  # on sat's stack, above a node whose children are listed


def sat(model: KripkeModel, f: Formula, within: int | None = None) -> int:
    """The states of `within` where `f` holds, as a bitmask over
    `model.index`; `within` is an `int` mask over the same numbering, every
    state by default.  Anything else, a `bool` or a mask with bits outside
    the model, raises `ModelError`.

    Three passes over the formula's subterm DAG, none recursive, each
    dispatching once per node on its exact class.  Nodes are keyed by
    identity: `id` is one C call, where a node's `__hash__` is a Python
    method call, and an equal node that is another object would be
    compared by its text.

    1. An explicit stack checks each node where it first meets it, so the
       leftmost unknown proposition or agent raises `ModelError`, even
       where no needed state reaches it, and lists the nodes children first.
    2. Parents before children, each node gets its need: the states where
       its truth is asked, the union of what its parents ask.  The root
       needs `within`; `B[i] g` asks `g` at the i-successors of its own
       need, and a connective asks its operands at its own need.
    3. Children before parents, each node is labelled on its need only.  A
       diamond whose need holds more than `DENSE_SHARE` of the states
       tests every row at once (and asks its operand everywhere); a
       smaller need tests only its own states' rows.  A box is the
       diamond of its operand's complement, complemented and cut to the
       need, with the same per-row work.

    So a pointed query costs the states within the formula's modal depth
    of the point.  A global query labels every state; the universal checks
    ask their scope's least state alone first (`_least_failure`), so one
    that fails there costs a pointed query.
    """
    idx = model.index
    full = idx.full
    if within is None:
        within = full
    elif type(within) is not int or not 0 <= within <= full:
        raise ModelError(f"not a mask of the model's {len(idx.order)} states: {within!r}")
    # The right index of C/P is deliberately exempt: see module docstring.
    post, seen = [], set()
    stack: list = [f]  # nodes to check; a node under _LISTED has its children listed
    while stack:
        g = stack.pop()
        t = type(g)
        if g is _LISTED:
            g = stack.pop()
        elif id(g) in seen:
            continue
        elif t is Prop:
            if g.name not in model.props:
                raise ModelError(f"unknown proposition: {g.name}")
        elif t in _BINARY:
            stack += (g, _LISTED, g.right, g.left)
            continue
        elif t is Not or t is Believes or t is CertainAgent or t is PossibleAgent:
            if t is not Not and g.agent not in model.agents:
                raise ModelError(f"unknown agent: {g.agent}")
            if t is Not or t is Believes:
                stack += (g, _LISTED, g.sub)
                continue
        else:
            raise TypeError(f"not a formula: {g!r}")
        seen.add(id(g))
        post.append(g)

    dense = len(idx.order) * DENSE_SHARE
    need = {id(f): within}
    for g in reversed(post):
        t = type(g)
        if t in _BINARY:
            n = need[id(g)]
            need[id(g.left)] = need.get(id(g.left), 0) | n
            need[id(g.right)] = need.get(id(g.right), 0) | n
        elif t is Believes or t is Not:
            n = need[id(g)]
            if t is Believes:
                n = full if n.bit_count() > dense else idx.image(n, (g.agent,))
            need[id(g.sub)] = need.get(id(g.sub), 0) | n

    done: dict[int, int] = {}
    for g in post:
        n = need[id(g)]
        t = type(g)
        if t is Prop:
            m = idx.valuation[g.name]
        elif t is Not:
            m = full ^ done[id(g.sub)]
        elif t is And:
            m = done[id(g.left)] & done[id(g.right)]
        elif t is Or:
            m = done[id(g.left)] | done[id(g.right)]
        elif t is Implies:
            m = (full ^ done[id(g.left)]) | done[id(g.right)]
        else:
            at = None if n.bit_count() > dense else n
            inner = done[id(g.sub)] if t is Believes else idx.present.get(g.about, 0)
            if t is PossibleAgent:
                m = _diamond(idx.rows[g.agent], inner, at)
            else:  # the box is the diamond's dual: no successor outside `inner`
                m = ~_diamond(idx.rows[g.agent], full ^ inner, at)
        done[id(g)] = m & n
    return done[id(f)]


def holds_at(model: KripkeModel, state: StateId, f: Formula) -> bool:
    """Truth of `f` at the pointed model (model, state)."""
    return bool(sat(model, f, model.index.mask((state,))))


def _least_failure(model: KripkeModel, f: Formula, within: int) -> int:
    """The one-bit mask of the least state of `within` where `f` is false,
    or 0 if `f` holds at every state of it.

    The least state is asked alone first, a pointed query: where `f` is
    false there, no other state is labelled.  Only then is the whole of
    `within` labelled.  The first call checks the whole formula, so an
    unknown symbol raises as it would from one `sat` over `within`."""
    low = within & -within
    if not sat(model, f, low):
        return low
    missed = within ^ sat(model, f, within)
    return missed & -missed


def holds_for_agent(model: KripkeModel, agent: Agent, f: Formula) -> bool:
    """Truth of `f` at every local state of `agent` (the agent-relative reading)."""
    model.require_agent(agent)
    return not _least_failure(model, f, model.index.locals[agent])


def holds_globally(model: KripkeModel, f: Formula) -> bool:
    """Truth of `f` at every state of the model."""
    return not _least_failure(model, f, model.index.full)
