"""The paper's laws of its four updates, written once, and the one check
of an update's whole result: `check_result` compares it, field by field in
plain form, with what `bench/reference.py` makes of the same update
(`oracles.ORACLES`), then checks the laws.

`LAWS[kind]` lists the named laws of each update kind.  A law is a
function of (before, after, args, formulas): the models before and after
the update, its agents by role (`j` the agent it is about, `i` the liar)
and formulas over the agents of `before`.  It returns the first (agent,
formula) at which it fails, or None; a law of the states returns (None,
what it found).  In a law's formula text, `k` is each agent of its group.
"""

import reference
from epk import (UpdateResult, holds_for_agent, lie_offline, lie_online, parse, unparse,
                 update_offline, update_online)
from oracles import ORACLES, agents_of, plain

UPDATES = {"online": update_online, "offline": update_offline,
           "lie_offline": lie_offline, "lie_online": lie_online}

# The groups of agents a law is about, from the models before and after and i, j.
GROUPS = {
    "every agent": lambda before, after, i, j: after.agents,
    "the old agents": lambda before, after, i, j: before.agents,
    "the survivors": lambda before, after, i, j: before.agents - {j},
    "the misinformed offline": lambda before, after, i, j: before.agents - {i, j},
    "the misinformed online": lambda before, after, i, j: after.agents - {i},  # j among them
    "the old misinformed": lambda before, after, i, j: before.agents - {i},
    "i and j": lambda before, after, i, j: {i, j},
    "i": lambda before, after, i, j: {i},
}


def holds(text, group, who="k", if_held=False):
    """For each agent k of `group`, `text` holds for the agent `who`
    names; with `if_held`, wherever it held before."""
    def law(before, after, args, formulas):
        for k in sorted(GROUPS[group](before, after, args.get("i"), args["j"])):
            names = {**args, "k": k}
            agent, f = names[who], parse(text.format(**names))
            if if_held and not holds_for_agent(before, agent, f):
                continue
            if not holds_for_agent(after, agent, f):
                return agent, unparse(f)
    return law


def keeps(group, with_j=True):
    """Each agent of `group` keeps the truth of each formula (without
    `with_j`, of each that does not name j)."""
    def law(before, after, args, formulas):
        for f in formulas:
            if with_j or args["j"] not in agents_of(f):
                for k in sorted(GROUPS[group](before, after, args.get("i"), args["j"])):
                    if holds_for_agent(after, k, f) != holds_for_agent(before, k, f):
                        return k, unparse(f)
    return law


def states(test):
    """`test(states before, states after)` is true."""
    return lambda before, after, args, formulas: (
        None if test(before.states, after.states) else (None, f"{len(after.states)} states"))


at_most_double = states(lambda old, new: len(new) <= 2 * len(old))

LAWS = {
    "online": [
        ("the states are unchanged", states(lambda old, new: old == new)),
        ("every agent is certain of j", holds("C[{k},{j}]", "every agent")),
        ("every old agent keeps each formula's truth", keeps("the old agents")),
    ],
    "offline": [
        ("the survivors see j absent", holds("~P[{k},{j}]", "the survivors")),
        ("the survivors keep each truth without j", keeps("the survivors", with_j=False)),
    ],
    "lie_offline": [
        ("the misinformed see j absent", holds("~P[{k},{j}]", "the misinformed offline")),
        ("i believes they do", holds("B[{i}] ~P[{k},{j}]", "the misinformed offline", who="i")),
        ("i and j keep C[k,j] where they held it", holds("C[{k},{j}]", "i and j", if_held=True)),
        ("at most 2|S| states", at_most_double),
    ],
    "lie_online": [
        ("the misinformed are certain of j", holds("C[{k},{j}]", "the misinformed online")),
        ("i believes they are", holds("B[{i}] C[{k},{j}]", "the misinformed online", who="i")),
        ("i is not fooled", holds("~P[{i},{j}]", "i", who="i")),
        ("the misinformed keep their truths", keeps("the old misinformed")),
        ("at most 2|S| states", at_most_double),
    ],
}


def differs(result, expected):
    """The first field of `result`, an `UpdateResult`, that differs from
    `expected`, an oracle's plain (model, discarded names, added, removed):
    ("the oracle's model", what `reference.same_model` finds differs), or
    ("the oracle's " + field, result's value by name, oracle's value).
    None when every field agrees."""
    if (why := reference.same_model(plain(result.model), expected[0])) is not None:
        return "the oracle's model", why
    got = ({s.name for s in result.discarded_states}, result.added_edges, result.removed_edges)
    for field, value, want in zip(UpdateResult._fields[1:], got, expected[1:], strict=True):
        if value != want:
            return f"the oracle's {field}", value, want


def check_result(kind, before, args, result, formulas=()):
    """`differs(result, oracle's)` for `result`, the update `kind` of
    `before` by `args` (its arguments after the model); else the first
    (law, agent, formula) at which `result.model` breaks a law of
    `LAWS[kind]`; else None."""
    if (failure := differs(result, ORACLES[kind](before, *args))) is not None:
        return failure
    roles = dict(zip("ij" if kind.startswith("lie") else "j", args))
    for name, law in LAWS[kind]:
        if (failure := law(before, result.model, roles, formulas)) is not None:
            return (name, *failure)


def check_update(kind, before, args, formulas=()):
    """`check_result` of the update `kind` of `before` by `args`, run here."""
    return check_result(kind, before, args, UPDATES[kind](before, *args), formulas)
