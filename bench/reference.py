"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports `epk` or the test suite: every expected value is
computed from the definitions, over plain successor sets, so an output is
never checked against a stored copy of what the program printed before.

Formulas are tuples: ("prop", p), ("not", f), ("and" | "or" | "imp", f, g),
("B", i, f), ("C", i, j), ("P", i, j).
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from gen import Plain

# ---------------------------------------------------------------- formulas

_BINARY = {"and": "&", "or": "|", "imp": "->"}


def render(f) -> str:
    """Formula text in the program's syntax, fully parenthesised."""
    kind = f[0]
    if kind == "prop":
        return f[1]
    if kind == "not":
        return "~" + render(f[1])
    if kind in _BINARY:
        return f"({render(f[1])} {_BINARY[kind]} {render(f[2])})"
    if kind == "B":
        return f"B[{f[1]}] " + render(f[2])
    return f"{kind}[{f[1]},{f[2]}]"


def nested_not(depth: int, prop: str):
    f = ("prop", prop)
    for _ in range(depth):
        f = ("not", f)
    return f


def _children(f):
    kind = f[0]
    if kind == "not":
        return (f[1],)
    if kind in _BINARY:
        return (f[1], f[2])
    if kind == "B":
        return (f[2],)
    return ()


def successor_sets(m: Plain) -> Dict[str, Dict[str, Set[str]]]:
    succ: Dict[str, Dict[str, Set[str]]] = {a: {} for a in m.agents}
    for a, edges in m.rel.items():
        for (s, t) in edges:
            succ[a].setdefault(s, set()).add(t)
    return succ


class Labeller:
    """Set-at-a-time labelling: sat(f) is the set of states where f holds,
    computed bottom-up over the formula with an explicit stack."""

    def __init__(self, m: Plain):
        self.states = frozenset(m.states)
        self.val = {p: frozenset(v) for p, v in m.val.items()}
        self.succ = successor_sets(m)
        self.present = {a: frozenset(s for s, ts in tab.items() if ts)
                        for a, tab in self.succ.items()}

    def _box(self, agent: str, target: FrozenSet[str]) -> FrozenSet[str]:
        tab = self.succ[agent]
        return frozenset(s for s in self.states if tab.get(s, set()) <= target)

    def sat(self, f) -> FrozenSet[str]:
        done: Dict[int, FrozenSet[str]] = {}
        stack = [(f, False)]
        while stack:
            g, expanded = stack.pop()
            if id(g) in done:
                continue
            kids = _children(g)
            if kids and not expanded:
                stack.append((g, True))
                stack.extend((k, False) for k in kids)
                continue
            kind = g[0]
            if kind == "prop":
                r = self.val[g[1]]
            elif kind == "not":
                r = self.states - done[id(g[1])]
            elif kind == "and":
                r = done[id(g[1])] & done[id(g[2])]
            elif kind == "or":
                r = done[id(g[1])] | done[id(g[2])]
            elif kind == "imp":
                r = (self.states - done[id(g[1])]) | done[id(g[2])]
            elif kind == "B":
                r = self._box(g[1], done[id(g[2])])
            elif kind == "C":
                r = self._box(g[1], self.present.get(g[2], frozenset()))
            else:  # "P": some successor has an edge of the named agent
                pres = self.present.get(g[2], frozenset())
                tab = self.succ[g[1]]
                r = frozenset(s for s in self.states if tab.get(s, set()) & pres)
            done[id(g)] = r
        return done[id(f)]


# ---------------------------------------------------------------- updates

def _tag(s: str, tag: str) -> str:
    return f"{s}@{tag}"


def _prune(m: Plain, seeds: Iterable[str]) -> Plain:
    succ: Dict[str, Set[str]] = {}
    for edges in m.rel.values():
        for (s, t) in edges:
            succ.setdefault(s, set()).add(t)
    kept = set(seeds)
    todo = list(kept)
    while todo:
        for t in succ.get(todo.pop(), ()):
            if t not in kept:
                kept.add(t)
                todo.append(t)
    return Plain(sorted(kept), list(m.agents), list(m.props),
                 {a: {(s, t) for (s, t) in e if s in kept and t in kept} for a, e in m.rel.items()},
                 {p: v & kept for p, v in m.val.items()},
                 {a: v & kept for a, v in m.loc.items()}, dict(m.meta))


def offline(m: Plain, j: str) -> Plain:
    agents = [a for a in m.agents if a != j]
    interim = Plain(list(m.states), agents, list(m.props), {a: m.rel[a] for a in agents},
                    m.val, {a: m.loc[a] for a in agents}, dict(m.meta))
    return _prune(interim, set().union(*(m.loc[a] for a in agents)))


def online(m: Plain, j: str, new_locals: Iterable[str]) -> Plain:
    rel = dict(m.rel)
    rel[j] = {(s, t) for s in m.states for t in m.states}
    loc = dict(m.loc)
    loc[j] = set(new_locals)
    return Plain(list(m.states), list(m.agents) + [j], list(m.props), rel, m.val, loc, dict(m.meta))


def _split(m: Plain, act_agents: Set[str], shift_agents: Set[str],
           misinformed: Set[str], home: Dict[str, str]) -> Plain:
    """Two tagged copies of m: an agent's edges are kept in the act copy if
    it is in act_agents and in the shift copy if in shift_agents; each
    misinformed agent also gets its edges from act into shift.  `home`
    says which copy holds each agent's local states."""
    states = [_tag(s, t) for t in ("act", "shift") for s in m.states]
    rel = {}
    for k in m.agents:
        edges = set()
        for (s, t) in m.rel[k]:
            if k in act_agents:
                edges.add((_tag(s, "act"), _tag(t, "act")))
            if k in shift_agents:
                edges.add((_tag(s, "shift"), _tag(t, "shift")))
            if k in misinformed:
                edges.add((_tag(s, "act"), _tag(t, "shift")))
        rel[k] = edges
    val = {p: {_tag(s, t) for t in ("act", "shift") for s in v} for p, v in m.val.items()}
    loc = {k: {_tag(s, home[k]) for s in m.loc[k]} for k in m.agents}
    return Plain(states, list(m.agents), list(m.props), rel, val, loc, dict(m.meta))


def lie_offline(m: Plain, i: str, j: str) -> Plain:
    mis = set(m.agents) - {i, j}
    merged = _split(m, act_agents={i, j}, shift_agents=set(m.agents) - {j}, misinformed=mis,
                    home={k: "shift" if k in mis else "act" for k in m.agents})
    return _prune(merged, set().union(*merged.loc.values()))


def lie_online(m: Plain, i: str, j: str, new_locals: Iterable[str]) -> Plain:
    mis = set(m.agents) - {i}
    merged = _split(m, act_agents={i}, shift_agents=set(m.agents), misinformed=mis,
                    home={k: "act" if k == i else "shift" for k in m.agents})
    shift_states = [_tag(s, "shift") for s in m.states]
    merged.rel[j] = {(s, t) for s in shift_states for t in shift_states}
    merged.loc[j] = {_tag(s, "shift") for s in new_locals}
    merged.agents.append(j)
    return _prune(merged, set().union(*merged.loc.values()))


# ---------------------------------------------------------------- documents

def plain_from_doc(doc: dict) -> Plain:
    """Read a written model document.  Relations may be pair lists or
    adjacency maps ({"s": ["t", ...]})."""
    rel = {}
    for a, r in doc["relations"].items():
        if isinstance(r, dict):
            rel[a] = {(s, t) for s, ts in r.items() for t in ts}
        else:
            rel[a] = {(s, t) for (s, t) in r}
    return Plain(list(doc["states"]), list(doc["agents"]), list(doc["props"]), rel,
                 {p: set(v) for p, v in doc["valuation"].items()},
                 {a: set(v) for a, v in doc["locals"].items()}, dict(doc.get("meta", {})))


def same_model(a: Plain, b: Plain) -> Optional[str]:
    """None when equal as models (meta aside), else what differs."""
    if set(a.states) != set(b.states) or len(a.states) != len(set(a.states)):
        return "states"
    if set(a.agents) != set(b.agents) or set(a.props) != set(b.props):
        return "agents or props"
    for k in a.agents:
        if set(a.rel[k]) != set(b.rel[k]):
            return f"relation of {k}"
        if set(a.loc[k]) != set(b.loc[k]):
            return f"locals of {k}"
    for p in a.props:
        if set(a.val[p]) != set(b.val[p]):
            return f"valuation of {p}"
    return None


# ---------------------------------------------------------------- frames

PROPERTIES = ("reflexive", "symmetric", "serial", "transitive", "euclidean")


def local_domain(m: Plain, agent: str) -> Set[str]:
    """The states reachable from the agent's local states, those included:
    the domain `validate --mode local` checks."""
    succ = successor_sets(m)[agent]
    dom = set(m.loc[agent])
    todo = list(dom)
    while todo:
        for t in succ.get(todo.pop(), ()):
            if t not in dom:
                dom.add(t)
                todo.append(t)
    return dom


def frame_flags(rel: Set[Tuple[str, str]], dom: Set[str]) -> Dict[str, bool]:
    succ: Dict[str, Set[str]] = {}
    for (s, t) in rel:
        succ.setdefault(s, set()).add(t)
    return {
        "reflexive": all((s, s) in rel for s in dom),
        "serial": all(succ.get(s) for s in dom),
        "symmetric": all((t, s) in rel for (s, t) in rel),
        "transitive": all(succ.get(t, set()) <= succ[s] for (s, t) in rel),
        "euclidean": all(succ[t] >= succ[s] if t in succ else not succ[s] for (s, t) in rel),
    }


def is_counterexample(prop: str, w: List[str], rel: Set[Tuple[str, str]], dom: Set[str]) -> bool:
    if prop == "reflexive" and len(w) == 1:
        return w[0] in dom and (w[0], w[0]) not in rel
    if prop == "serial" and len(w) == 1:
        return w[0] in dom and not any(s == w[0] for (s, _t) in rel)
    if prop == "symmetric" and len(w) == 2:
        return (w[0], w[1]) in rel and (w[1], w[0]) not in rel
    if prop == "transitive" and len(w) == 3:
        return (w[0], w[1]) in rel and (w[1], w[2]) in rel and (w[0], w[2]) not in rel
    if prop == "euclidean" and len(w) == 3:
        return (w[0], w[1]) in rel and (w[0], w[2]) in rel and (w[1], w[2]) not in rel
    return False


_HEAD = re.compile(r"^agent (\S+) \[(global|local) over (\d+) states\]: (.*?)  "
                   r"KD45=(yes|no) S5=(yes|no)$")
_FAIL = re.compile(r"^  (\w+) fails at: (.*)$")


def parse_validate(text: str):
    """Reports printed by `validate`: {agent: (mode, size, flags, kd45, s5, witnesses)}."""
    reports = {}
    current = None
    for line in text.splitlines():
        head = _HEAD.match(line)
        if head:
            agent, mode, size, flags, kd45, s5 = head.groups()
            flag_map = dict(kv.split("=") for kv in flags.split())
            current = agent
            reports[agent] = (mode, int(size), {k: v == "yes" for k, v in flag_map.items()},
                              kd45 == "yes", s5 == "yes", {})
            continue
        fail = _FAIL.match(line)
        if fail is None or current is None:
            raise ValueError(f"unexpected validate output line: {line!r}")
        reports[current][5][fail.group(1)] = fail.group(2).split(", ")
    return reports


def check_validate(text: str, m: Plain) -> Optional[str]:
    """None when every report printed by `validate --mode local` agrees
    with an independent frame check of m and every printed witness is a
    real counterexample."""
    try:
        reports = parse_validate(text)
    except ValueError as e:
        return str(e)
    if set(reports) != set(m.agents):
        return f"reported agents {sorted(reports)} != {sorted(m.agents)}"
    for a, (rmode, size, flags, kd45, s5, wit) in reports.items():
        dom = local_domain(m, a)
        rel = {(s, t) for (s, t) in m.rel[a] if s in dom and t in dom}
        want = frame_flags(rel, dom)
        if rmode != "local" or size != len(dom):
            return f"agent {a}: domain {rmode}/{size}, expected local/{len(dom)}"
        if flags != want:
            return f"agent {a}: flags {flags}, expected {want}"
        if kd45 != (want["serial"] and want["transitive"] and want["euclidean"]):
            return f"agent {a}: KD45 verdict"
        if s5 != (want["reflexive"] and want["symmetric"] and want["transitive"]):
            return f"agent {a}: S5 verdict"
        if set(wit) != {p for p in PROPERTIES if not want[p]}:
            return f"agent {a}: witnesses for {sorted(wit)}"
        for prop, w in wit.items():
            if not is_counterexample(prop, w, rel, dom):
                return f"agent {a}: {prop} witness {w} is no counterexample"
    return None
