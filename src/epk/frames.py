"""Frame-property checks: reflexivity, symmetry, seriality, transitivity,
Euclideanness, reported per agent either over the whole state space or over
the agent's subjective domain (the closure of its local states under its
own edges).

These are reports, never enforcement: transformations are free to produce
globally non-serial relations, and frequently do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from .model import (Agent, Edge, KripkeModel, ModelError, StateId, positions,
                    reachable_from)

PROPERTIES = ("reflexive", "symmetric", "serial", "transitive", "euclidean")


@dataclass(frozen=True)
class FramePropertyReport:
    agent: Agent
    domain: FrozenSet[StateId]
    reflexive: bool
    symmetric: bool
    serial: bool
    transitive: bool
    euclidean: bool
    # one counterexample tuple per failed property
    witnesses: Dict[str, Tuple[StateId, ...]] = field(default_factory=dict)


def check_properties(relation: FrozenSet[Edge], domain: FrozenSet[StateId],
                     agent: Agent = "") -> FramePropertyReport:
    """Which of the five properties `relation` has over `domain`.

    Each failed property gets its lexicographically least counterexample.
    The sorted domain is numbered and each state's successors held as one
    bitmask, so every property costs one mask test per state or per edge.
    """
    domain = frozenset(domain)
    order = sorted(domain)
    bit = {s: k for k, s in enumerate(order)}
    succ = [0] * len(order)  # succ[k]: the successors of state k
    pred = [0] * len(order)  # pred[k]: the states that have k as a successor
    try:
        for (s, t) in relation:
            k, m = bit[s], bit[t]
            succ[k] |= 1 << m
            pred[m] |= 1 << k
    except KeyError as e:
        raise ModelError(f"relation endpoint {e.args[0]} outside domain") from None

    def least(mask: int) -> StateId:
        return order[(mask & -mask).bit_length() - 1]

    def first_triple(fails) -> Optional[Tuple[StateId, ...]]:
        """The least (s, t, u) with (s, t) an edge and u in fails(s's row, t's row)."""
        for k, row in enumerate(succ):
            for t in positions(row):
                bad = fails(row, succ[t])
                if bad:
                    return (order[k], order[t], least(bad))
        return None

    witnesses: Dict[str, Tuple[StateId, ...]] = {}
    for k, row in enumerate(succ):
        if not row >> k & 1:
            witnesses["reflexive"] = (order[k],)
            break
    for k, row in enumerate(succ):
        if not row:
            witnesses["serial"] = (order[k],)
            break
    for k, row in enumerate(succ):
        if row & ~pred[k]:  # some t with (s, t) but not (t, s)
            witnesses["symmetric"] = (order[k], least(row & ~pred[k]))
            break
    # transitive: every successor u of a successor t of s is a successor of s
    # Euclidean: every successor u of s is a successor of each successor t of s
    for name, fails in (("transitive", lambda s_row, t_row: t_row & ~s_row),
                        ("euclidean", lambda s_row, t_row: s_row & ~t_row)):
        w = first_triple(fails)
        if w:
            witnesses[name] = w

    flags = {p: p not in witnesses for p in PROPERTIES}
    return FramePropertyReport(agent=agent, domain=domain, witnesses=witnesses, **flags)


def classify_model(model: KripkeModel, mode: str = "global") -> Dict[Agent, FramePropertyReport]:
    """Per-agent frame report.  Global mode checks R(i) over all states;
    local mode checks R(i) restricted to the i-reachable closure of I(i)."""
    if mode not in ("global", "local"):
        raise ModelError(f"unknown validation mode: {mode}")
    reports = {}
    for a in sorted(model.agents):
        if mode == "global":
            domain = model.states
            relation = model.relations[a]
        else:
            # The closure holds every a-successor of its states.
            domain = reachable_from(model, model.locals[a], {a})
            relation = frozenset(e for e in model.relations[a] if e[0] in domain)
        reports[a] = check_properties(relation, domain, agent=a)
    return reports


def is_kd45(report: FramePropertyReport) -> bool:
    return report.serial and report.transitive and report.euclidean


def is_s5(report: FramePropertyReport) -> bool:
    return report.reflexive and report.symmetric and report.transitive
