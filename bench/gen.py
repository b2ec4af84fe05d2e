"""Seeded generators for the benchmark's models.

Models are plain values (`Plain`): state names are strings, relations are
sets of (source, target) pairs.  The program under test only ever sees the
documents written from them, or the models it loads from those documents.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

Edge = Tuple[str, str]


@dataclass
class Plain:
    states: List[str]
    agents: List[str]
    props: List[str]
    rel: Dict[str, Set[Edge]]
    val: Dict[str, Set[str]]
    loc: Dict[str, Set[str]]
    meta: Dict[str, str] = field(default_factory=dict)

    def edges(self) -> int:
        return sum(len(r) for r in self.rel.values())


def to_doc(m: Plain) -> dict:
    doc = {
        "states": sorted(m.states),
        "agents": sorted(m.agents),
        "props": sorted(m.props),
        "relations": {a: sorted([s, t] for (s, t) in m.rel[a]) for a in sorted(m.agents)},
        "valuation": {p: sorted(m.val[p]) for p in sorted(m.props)},
        "locals": {a: sorted(m.loc[a]) for a in sorted(m.agents)},
    }
    if m.meta:
        doc["meta"] = dict(sorted(m.meta.items()))
    return doc


def write_doc(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _valuation(rng: random.Random, states, props) -> Dict[str, Set[str]]:
    return {p: {s for s in states if rng.random() < 0.5} for p in props}


def _out_degree(rng: random.Random) -> int:
    """About 4 on average.  One state in five has no edge of the agent, so
    the presence atom under C and P is false at some states."""
    return 0 if rng.random() < 0.2 else rng.randint(4, 6)


def sparse_random(rng: random.Random, n: int, agents=("a", "b", "c"),
                  props=("p", "q", "r"), n_locals=5) -> Plain:
    """Uniformly random successors, `_out_degree` of them per state and agent."""
    states = [str(k) for k in range(1, n + 1)]
    rel = {a: {(s, t) for s in states for t in rng.sample(states, _out_degree(rng))}
           for a in agents}
    loc = {a: set(rng.sample(states, n_locals)) for a in agents}
    return Plain(states, list(agents), list(props), rel, _valuation(rng, states, props),
                 loc, {"family": "sparse", "n": str(n)})


def local_kd45(rng: random.Random, n: int, agents=("a", "b", "c"),
               props=("p", "q", "r"), n_locals=6, cluster=12) -> Plain:
    """KD45 on the closure of each agent's local states, by shape.

    Edges from I(i) and from a belief cluster K(i) go to every state of
    K(i), so the closure I(i) | K(i) is serial, transitive and Euclidean.
    Every other state gets `_out_degree` random successors, which never
    lead out of a closure because they start outside it.
    """
    states = [str(k) for k in range(1, n + 1)]
    rel, loc = {}, {}
    for a in agents:
        picked = rng.sample(states, n_locals + cluster)
        ia, ka = set(picked[:n_locals]), set(picked[n_locals:])
        edges = {(s, t) for s in ia | ka for t in ka}
        for s in states:
            if s not in ia and s not in ka:
                edges.update((s, t) for t in rng.sample(states, _out_degree(rng)))
        rel[a], loc[a] = edges, ia
    return Plain(states, list(agents), list(props), rel, _valuation(rng, states, props),
                 loc, {"family": "kd45", "n": str(n)})


def hypercube(d: int) -> Plain:
    """The d-bit generalisation of fixtures/cube3.json.

    States are bit strings; agent v<k> cannot tell apart the two states
    differing in bit k, so every relation is an equivalence (S5).  Prop
    p<k> holds where bit k is 1.  The true world is 1...10, and each
    agent's local states are its class of the true world.
    """
    states = [format(x, f"0{d}b") for x in range(2 ** d)]
    agents = [f"v{k + 1}" for k in range(d)]
    props = [f"p{k + 1}" for k in range(d)]

    def flip(s: str, k: int) -> str:
        return s[:k] + ("1" if s[k] == "0" else "0") + s[k + 1:]

    rel = {agents[k]: {(s, t) for s in states for t in (s, flip(s, k))} for k in range(d)}
    val = {props[k]: {s for s in states if s[k] == "1"} for k in range(d)}
    true_world = "1" * (d - 1) + "0"
    loc = {agents[k]: {true_world, flip(true_world, k)} for k in range(d)}
    return Plain(states, agents, props, rel, val, loc, {"family": "hypercube", "n": str(2 ** d)})
