"""Frame-property checks: reflexivity, symmetry, seriality, transitivity,
Euclideanness, reported per agent either over the whole state space or over
the agent's subjective domain (the closure of its local states under its
own edges).

These are reports, never enforcement: transformations are free to produce
globally non-serial relations, and frequently do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .model import (Agent, Edge, KripkeModel, ModelError, StateId, positions, rows_of,
                    sort_states)

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


def _witnesses(order, rows: List[int], domain: int) -> Dict[str, Tuple[StateId, ...]]:
    """Each property that the relation with successor rows `rows` (over the
    sorted numbering `order`) fails on the states in `domain`, with its
    lexicographically least counterexample.  Rows of domain states must
    lie within `domain`; other rows are not read.  Each property costs one
    mask test per state or per edge."""
    dom = list(positions(domain))

    def least(mask: int) -> StateId:
        return order[(mask & -mask).bit_length() - 1]

    def first_triple(fails) -> Optional[Tuple[StateId, ...]]:
        """The least (s, t, u) with (s, t) an edge and u in fails(s's row, t's row)."""
        for k in dom:
            row = rows[k]
            for t in positions(row):
                bad = fails(row, rows[t])
                if bad:
                    return (order[k], order[t], least(bad))
        return None

    witnesses: Dict[str, Tuple[StateId, ...]] = {}
    for k in dom:
        if not rows[k] >> k & 1:
            witnesses["reflexive"] = (order[k],)
            break
    for k in dom:
        if not rows[k]:
            witnesses["serial"] = (order[k],)
            break
    # symmetric: s is a successor of each of its successors t
    w = next(((order[k], order[t]) for k in dom for t in positions(rows[k])
              if not rows[t] >> k & 1), None)
    if w:
        witnesses["symmetric"] = w
    # transitive: every successor u of a successor t of s is a successor of s
    # Euclidean: every successor u of s is a successor of each successor t of s
    for name, fails in (("transitive", lambda s_row, t_row: t_row & ~s_row),
                        ("euclidean", lambda s_row, t_row: s_row & ~t_row)):
        w = first_triple(fails)
        if w:
            witnesses[name] = w
    return witnesses


def _report(agent: Agent, domain: FrozenSet[StateId], witnesses) -> FramePropertyReport:
    flags = {p: p not in witnesses for p in PROPERTIES}
    return FramePropertyReport(agent=agent, domain=domain, witnesses=witnesses, **flags)


def check_properties(relation: Iterable[Edge], domain: Iterable[StateId],
                     agent: Agent = "") -> FramePropertyReport:
    """Which of the five properties `relation` has over `domain`.

    Each failed property gets its lexicographically least counterexample.
    The edges are read into successor rows over the sorted domain, which
    `classify_model` takes straight from the model.
    """
    domain = frozenset(domain)
    order = sort_states(domain)
    bit = dict(zip(order, range(len(order))))
    rows = rows_of(relation, bit, "relation endpoint {} outside domain")
    return _report(agent, domain, _witnesses(order, rows, (1 << len(order)) - 1))


def classify_model(model: KripkeModel, mode: str = "global") -> Dict[Agent, FramePropertyReport]:
    """Per-agent frame report.  Global mode checks R(i) over all states;
    local mode checks R(i) restricted to the i-reachable closure of I(i)."""
    if mode not in ("global", "local"):
        raise ModelError(f"unknown validation mode: {mode}")
    idx = model.index
    reports = {}
    for a in sorted(model.agents):
        if mode == "global":
            domain, states = idx.full, model.states
        else:
            # The closure holds every a-successor of its states.
            domain = idx.closure(idx.locals[a], [a])
            states = idx.states_of(domain)
        reports[a] = _report(a, states, _witnesses(idx.order, idx.rows[a], domain))
    return reports


def is_kd45(report: FramePropertyReport) -> bool:
    return report.serial and report.transitive and report.euclidean


def is_s5(report: FramePropertyReport) -> bool:
    return report.reflexive and report.symmetric and report.transitive
