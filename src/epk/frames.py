"""Frame-property checks: reflexivity, symmetry, seriality, transitivity,
Euclideanness, reported per agent either over the whole state space or over
the agent's subjective domain (the closure of its local states under its
own edges).

These are reports, never enforcement: transformations are free to produce
globally non-serial relations, and frequently do.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from types import MappingProxyType

from .model import Agent, Edge, KripkeModel, ModelError, StateId, positions, read_rows

PROPERTIES = ("reflexive", "symmetric", "serial", "transitive", "euclidean")


# An agent's flag per property over its domain, and in `witnesses` one
# counterexample tuple of states per failed property.
FramePropertyReport = namedtuple("FramePropertyReport",
                                 ("agent", "domain", *PROPERTIES, "witnesses"),
                                 defaults=(MappingProxyType({}),))
# A MappingProxyType cannot be pickled or copied: a report is rebuilt with
# its witnesses as a dict, or without any, to get the read-only default.
FramePropertyReport.__reduce__ = lambda r: (
    FramePropertyReport, (*r[:-1], dict(r.witnesses)) if r.witnesses else r[:-1])


def _witnesses(order, rows: list[int], domain: int) -> dict[str, tuple[StateId, ...]]:
    """Each property that the relation with successor rows `rows` (over the
    sorted numbering `order`) fails on the states in `domain`, with its
    lexicographically least counterexample.  Rows of domain states must
    lie within `domain`; other rows are not read.

    Each property is tested once per distinct row, against that row's
    targets: one by one, or grouped by their own distinct rows where those
    are fewer.  Every row of a universal block is the same mask, so a block
    costs one test where it would cost one per edge."""
    # each distinct row with the domain states holding it, in order of
    # their least state
    distinct: dict[int, int] = {}
    for k in positions(domain):
        distinct[rows[k]] = distinct.get(rows[k], 0) | 1 << k

    def low(mask: int) -> int:
        return (mask & -mask).bit_length() - 1

    def targets(row: int) -> list[tuple[int, int]]:
        """Disjoint (targets, their row) pairs covering the targets of `row`."""
        if row.bit_count() <= len(distinct):
            return [(1 << t, rows[t]) for t in positions(row)]
        return [(held & row, t_row) for t_row, held in distinct.items() if held & row]

    def least(found) -> tuple[StateId, ...] | None:
        """The least counterexample (s, ...) of those `found(row, held)`
        gives for each distinct row and the states `held` that hold it.
        Its s is one of them, so rows whose least state comes after the
        best s so far are not asked."""
        best = None
        for row, held in distinct.items():
            if best is not None and low(held) > best[0]:
                break
            for w in found(row, held):
                best = w if best is None else min(best, w)
        return best and tuple(order[k] for k in best)

    def missing(mask: int, row: int) -> int:
        """The states of `mask` not in `row`."""
        return mask ^ (mask & row)

    found = {
        # every state is its own successor
        "reflexive": lambda row, held: [(low(missing(held, row)),)] if missing(held, row) else [],
        # s is a successor of each of its successors t
        "symmetric": lambda row, held: [(low(missing(held, t_row)), low(ts))
                                        for ts, t_row in targets(row) if missing(held, t_row)],
        # every state has a successor
        "serial": lambda row, held: [] if row else [(low(held),)],
        # every successor u of a successor t of s is a successor of s
        "transitive": lambda row, held: [(low(held), low(ts), low(missing(t_row, row)))
                                         for ts, t_row in targets(row) if missing(t_row, row)],
        # every successor u of s is a successor of each successor t of s
        "euclidean": lambda row, held: [(low(held), low(ts), low(missing(row, t_row)))
                                        for ts, t_row in targets(row) if missing(row, t_row)],
    }
    return {name: w for name, w in ((name, least(f)) for name, f in found.items()) if w}


def _report(agent: Agent, domain: frozenset[StateId], witnesses) -> FramePropertyReport:
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
    order = tuple(sorted(domain))
    try:
        rows = read_rows(relation, {s: 1 << k for k, s in enumerate(order)}, len(order), {})
    except KeyError as e:
        raise ModelError(f"relation endpoint {e.args[0]} outside domain") from None
    return _report(agent, domain, _witnesses(order, rows, (1 << len(order)) - 1))


def classify_model(model: KripkeModel, mode: str = "global") -> dict[Agent, FramePropertyReport]:
    """Per-agent frame report.  Global mode checks R(i) over all states;
    local mode checks R(i) restricted to the i-reachable closure of I(i)."""
    if mode not in ("global", "local"):
        raise ModelError(f"unknown validation mode: {mode}")
    idx = model.index
    reports = {}
    for a in sorted(model.agents):
        # A local domain is a closure: it holds every a-successor of its states.
        domain = idx.full if mode == "global" else idx.closure(idx.locals[a], [a])
        states = model.states if domain == idx.full else idx.states_of(domain)
        reports[a] = _report(a, states, _witnesses(idx.order, idx.rows[a], domain))
    return reports


def is_kd45(report: FramePropertyReport) -> bool:
    return report.serial and report.transitive and report.euclidean


def is_s5(report: FramePropertyReport) -> bool:
    return report.reflexive and report.symmetric and report.transitive
