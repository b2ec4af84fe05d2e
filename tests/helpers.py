"""Shared fixtures and random generators for the test suite."""

import os
import random
import time

from epk import KripkeModel, StateId
from epk.formulas import (And, Believes, CertainAgent, Implies, Not, Or,
                          PossibleAgent, Prop)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def best_time(fn, k=3):
    """The least wall-clock time of `k` calls of `fn`.  A ratio of best-of-k
    times stays stable where a single timing does not."""
    best = float("inf")
    for _ in range(k):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def fixture_path(name):
    return os.path.join(FIXTURES, name + ".json")


def figure2():
    return KripkeModel.build(
        states=["1", "2", "3"], agents=["m", "f", "g"], props=["p"],
        relations={"m": [("1", "1"), ("2", "2"), ("2", "1"), ("1", "2"), ("3", "3")],
                   "f": [("1", "3"), ("2", "3"), ("3", "3")],
                   "g": [("3", "3")]},
        valuation={"p": ["1", "3"]},
        locals={"m": ["1", "2"], "f": ["3"], "g": ["3"]})


def figure2_minus_g():
    return KripkeModel.build(
        states=["1", "2", "3"], agents=["m", "f"], props=["p"],
        relations={"m": [("1", "1"), ("2", "2"), ("2", "1"), ("1", "2"), ("3", "3")],
                   "f": [("1", "3"), ("2", "3"), ("3", "3")]},
        valuation={"p": ["1", "3"]},
        locals={"m": ["1", "2"], "f": ["3"]})


AGENT_POOL = ["a", "b", "c"]
PROP_POOL = ["p", "q", "r"]


def random_local_kd45_model(rng: random.Random, max_states=6, max_agents=3,
                            max_props=3, min_agents=1, min_states=1,
                            max_block=None, noise=0.25) -> KripkeModel:
    """A random model whose every agent is KD45 on the closure of its local
    states: edges from I(i) and a belief cluster B all land in B, so the
    subjective component is serial, transitive and Euclidean by shape.
    Extra noise edges, each present with probability `noise`, are allowed
    only from states outside that closure.  `max_block` caps the sizes of
    I(i) and B, which keeps larger models sparse."""
    n = rng.randint(min_states, max_states)
    block = n if max_block is None else min(n, max_block)
    states = [StateId(str(k + 1)) for k in range(n)]
    agents = AGENT_POOL[:rng.randint(min_agents, max_agents)]
    props = PROP_POOL[:rng.randint(1, max_props)]
    relations, locs = {}, {}
    for ag in agents:
        loc = set(rng.sample(states, rng.randint(1, block)))
        cluster = set(rng.sample(states, rng.randint(1, block)))
        edges = {(s, t) for s in loc | cluster for t in cluster}
        for s in states:
            if s in loc | cluster:
                continue
            for t in states:
                if rng.random() < noise:
                    edges.add((s, t))
        relations[ag] = edges
        locs[ag] = loc
    valuation = {p: {s for s in states if rng.random() < 0.5} for p in props}
    return KripkeModel.build(states=states, agents=agents, props=props,
                             relations=relations, valuation=valuation, locals=locs)


def random_sparse_model(rng: random.Random, n, agents=AGENT_POOL, props=PROP_POOL,
                        max_degree=4) -> KripkeModel:
    """A random model on exactly `n` states with few edges: each state gets
    0 to `max_degree` successors per agent, so some states have none."""
    states = [StateId(str(k + 1)) for k in range(n)]
    relations = {ag: {(s, t) for s in states
                      for t in rng.sample(states, rng.randint(0, min(max_degree, n)))}
                 for ag in agents}
    locs = {ag: rng.sample(states, rng.randint(1, min(3, n))) for ag in agents}
    valuation = {p: {s for s in states if rng.random() < 0.5} for p in props}
    return KripkeModel.build(states=states, agents=agents, props=props,
                             relations=relations, valuation=valuation, locals=locs)


def random_formula(rng: random.Random, agents, props, depth,
                   extra_about=()):
    """Random formula over the given symbols.  `extra_about` adds names
    usable only as the right index of C/P (possibly absent agents)."""
    agents = sorted(agents)
    props = sorted(props)
    about = agents + sorted(extra_about)
    atoms = []
    if props:
        atoms.append("prop")
    if agents and about:
        atoms += ["certain", "possible"]
    if depth <= 0 or rng.random() < 0.25:
        kind = rng.choice(atoms)
    else:
        kind = rng.choice(["not", "and", "or", "implies"]
                          + (["believes"] if agents else []))
    if kind == "prop":
        return Prop(rng.choice(props))
    if kind == "certain":
        return CertainAgent(rng.choice(agents), rng.choice(about))
    if kind == "possible":
        return PossibleAgent(rng.choice(agents), rng.choice(about))
    if kind == "not":
        return Not(random_formula(rng, agents, props, depth - 1, extra_about))
    if kind == "believes":
        return Believes(rng.choice(agents),
                        random_formula(rng, agents, props, depth - 1, extra_about))
    left = random_formula(rng, agents, props, depth - 1, extra_about)
    right = random_formula(rng, agents, props, depth - 1, extra_about)
    return {"and": And, "or": Or, "implies": Implies}[kind](left, right)


def random_formula_dag(rng: random.Random, agents, props, nodes):
    """Random formula whose subterms are shared: each of `nodes` nodes takes
    its operands from the last three formulas made, atoms first, so one
    operand often sits under several parents, some of them under a B."""
    agents, props = sorted(agents), sorted(props)
    pool = [Prop(p) for p in props]
    pool.append(rng.choice([CertainAgent, PossibleAgent])(rng.choice(agents), rng.choice(agents)))
    for _ in range(nodes):
        kind = rng.choice(["not", "believes", "believes", "and", "or", "implies"])
        if kind == "not":
            pool.append(Not(rng.choice(pool[-3:])))
        elif kind == "believes":
            pool.append(Believes(rng.choice(agents), rng.choice(pool[-3:])))
        else:
            make = {"and": And, "or": Or, "implies": Implies}[kind]
            pool.append(make(rng.choice(pool[-3:]), rng.choice(pool[-3:])))
    return pool[-1]


IDENTS = ["p", "q", "r_1", "m", "f", "g", "B", "C", "Possibly"]


def random_ast(rng: random.Random, depth):
    """Arbitrary AST for parser round-trip tests, including keyword-looking
    names used as plain propositions."""
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.choice(["prop", "certain", "possible"])
    else:
        kind = rng.choice(["not", "and", "or", "implies", "believes"])
    if kind == "prop":
        return Prop(rng.choice(IDENTS))
    if kind == "certain":
        return CertainAgent(rng.choice(IDENTS), rng.choice(IDENTS))
    if kind == "possible":
        return PossibleAgent(rng.choice(IDENTS), rng.choice(IDENTS))
    if kind == "not":
        return Not(random_ast(rng, depth - 1))
    if kind == "believes":
        return Believes(rng.choice(IDENTS), random_ast(rng, depth - 1))
    left = random_ast(rng, depth - 1)
    right = random_ast(rng, depth - 1)
    return {"and": And, "or": Or, "implies": Implies}[kind](left, right)
