"""Independent reference implementations used only as test oracles.

The evaluator below is a direct, unmemoized transcription of the
satisfaction clauses; the update oracles follow the operator constructions
step by step, materializing both replicas in full and pruning at the end.
Each returns the whole result of its update, as `_pruned` makes it: the
model, the states pruned away, and the edges added and removed per agent.
They deliberately share no code with the production modules.
"""

from collections import deque

from epk.formulas import (And, Believes, CertainAgent, Implies, Not, Or,
                          PossibleAgent, Prop)
from epk.model import KripkeModel


def eval_at(model, state, f):
    """Unmemoized, directly-recursive satisfaction."""
    if isinstance(f, Prop):
        return state in model.valuation[f.name]
    if isinstance(f, Not):
        return not eval_at(model, state, f.sub)
    if isinstance(f, And):
        return eval_at(model, state, f.left) and eval_at(model, state, f.right)
    if isinstance(f, Or):
        return eval_at(model, state, f.left) or eval_at(model, state, f.right)
    if isinstance(f, Implies):
        return (not eval_at(model, state, f.left)) or eval_at(model, state, f.right)
    if isinstance(f, Believes):
        return all(eval_at(model, t, f.sub)
                   for (s, t) in model.relations[f.agent] if s == state)
    if isinstance(f, CertainAgent):
        return all(_has_edge_from(model, f.about, t)
                   for (s, t) in model.relations[f.agent] if s == state)
    if isinstance(f, PossibleAgent):
        return any(_has_edge_from(model, f.about, t)
                   for (s, t) in model.relations[f.agent] if s == state)
    raise TypeError(f)


def _has_edge_from(model, agent, state):
    if agent not in model.agents:
        return False
    return any(s == state for (s, t) in model.relations[agent])


def eval_for_agent(model, agent, f):
    return all(eval_at(model, s, f) for s in model.locals[agent])


def agents_of(f):
    """The agent names occurring in `f`, both indices of C/P included."""
    if isinstance(f, Prop):
        return set()
    if isinstance(f, (CertainAgent, PossibleAgent)):
        return {f.agent, f.about}
    if isinstance(f, Believes):
        return {f.agent} | agents_of(f.sub)
    if isinstance(f, Not):
        return agents_of(f.sub)
    return agents_of(f.left) | agents_of(f.right)


def _bfs(seeds, relations):
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        u = queue.popleft()
        for edges in relations.values():
            for (s, t) in edges:
                if s == u and t not in seen:
                    seen.add(t)
                    queue.append(t)
    return seen


def edge_counts(before, after):
    """Per agent of either model, the number of edges `after` adds to
    `before` and the number it removes, as set differences of edges by
    state name."""
    added, removed = {}, {}
    for a in before.agents | after.agents:
        old = {(s.name, t.name) for (s, t) in before.relations.get(a, ())}
        new = {(s.name, t.name) for (s, t) in after.relations.get(a, ())}
        added[a], removed[a] = len(new - old), len(old - new)
    return added, removed


def _pruned(before, states, agents, props, relations, valuation, locs):
    """The whole result of an update of `before` built as these sets: the
    model pruned to the states reachable from the local states, the states
    pruned away, and the edges added and removed per agent."""
    seeds = set()
    for sts in locs.values():
        seeds |= set(sts)
    kept = _bfs(seeds, relations)
    after = KripkeModel.build(
        states={s for s in states if s in kept},
        agents=agents, props=props,
        relations={a: {(s, t) for (s, t) in edges if s in kept and t in kept}
                   for a, edges in relations.items()},
        valuation={p: {s for s in sts if s in kept} for p, sts in valuation.items()},
        locals={a: {s for s in sts if s in kept} for a, sts in locs.items()})
    return (after, states - after.states, *edge_counts(before, after))


def oracle_update_offline(model, j):
    agents = model.agents - {j}
    return _pruned(
        model, set(model.states), agents, model.props,
        {a: set(model.relations[a]) for a in agents},
        {p: set(sts) for p, sts in model.valuation.items()},
        {a: set(model.locals[a]) for a in agents})


def oracle_update_online(model, j, new_locals):
    relations = {a: set(edges) for a, edges in model.relations.items()}
    relations[j] = {(s, t) for s in model.states for t in model.states}
    locs = {a: set(sts) for a, sts in model.locals.items()}
    locs[j] = set(new_locals)
    return _pruned(model, set(model.states), model.agents | {j}, model.props, relations,
                   {p: set(sts) for p, sts in model.valuation.items()}, locs)


def _act(s):
    return s.tagged("act")


def _shift(s):
    return s.tagged("shift")


def oracle_lie_offline(model, i, j):
    states = {_act(s) for s in model.states} | {_shift(s) for s in model.states}
    misinformed = model.agents - {i, j}
    relations = {}
    for k in model.agents:
        shift_part = set() if k == j else {(_shift(s), _shift(t))
                                           for (s, t) in model.relations[k]}
        act_part = set() if k in misinformed else {(_act(s), _act(t))
                                                   for (s, t) in model.relations[k]}
        addlinks = ({(_act(s), _shift(t)) for (s, t) in model.relations[k]}
                    if k in misinformed else set())
        relations[k] = act_part | shift_part | addlinks
    locs = {}
    for k in model.agents:
        if k in misinformed:
            locs[k] = {_shift(s) for s in model.locals[k]}
        else:
            locs[k] = {_act(s) for s in model.locals[k]}
    valuation = {p: {_act(s) for s in sts} | {_shift(s) for s in sts}
                 for p, sts in model.valuation.items()}
    return _pruned(model, states, model.agents, model.props, relations, valuation, locs)


def oracle_lie_online(model, i, j, new_locals):
    states = {_act(s) for s in model.states} | {_shift(s) for s in model.states}
    shift_states = {_shift(s) for s in model.states}
    misinformed = model.agents - {i}
    relations = {}
    for k in model.agents:
        shift_part = {(_shift(s), _shift(t)) for (s, t) in model.relations[k]}
        act_part = (set() if k in misinformed
                    else {(_act(s), _act(t)) for (s, t) in model.relations[k]})
        addlinks = ({(_act(s), _shift(t)) for (s, t) in model.relations[k]}
                    if k in misinformed else set())
        relations[k] = act_part | shift_part | addlinks
    relations[j] = {(s, t) for s in shift_states for t in shift_states}
    locs = {}
    for k in model.agents:
        if k in misinformed:
            locs[k] = {_shift(s) for s in model.locals[k]}
        else:
            locs[k] = {_act(s) for s in model.locals[k]}
    locs[j] = {_shift(s) for s in new_locals}
    valuation = {p: {_act(s) for s in sts} | {_shift(s) for s in sts}
                 for p, sts in model.valuation.items()}
    return _pruned(model, states, model.agents | {j}, model.props, relations, valuation,
                   locs)


ORACLES = {"online": oracle_update_online, "offline": oracle_update_offline,
           "lie_offline": oracle_lie_offline, "lie_online": oracle_lie_online}


def oracle_frame_witnesses(relation, domain):
    """Each frame property that fails, mapped to its lexicographically least
    counterexample, straight from the first-order definitions: candidate
    tuples are enumerated in lexicographic order and the first one that
    breaks the definition is taken."""
    R = set(relation)
    dom = sorted(domain)
    candidates = {
        "reflexive": ((s,) for s in dom if (s, s) not in R),
        "symmetric": ((s, t) for s in dom for t in dom
                      if (s, t) in R and (t, s) not in R),
        "serial": ((s,) for s in dom if not any((s, t) in R for t in dom)),
        "transitive": ((s, t, u) for s in dom for t in dom for u in dom
                       if (s, t) in R and (t, u) in R and (s, u) not in R),
        "euclidean": ((s, t, u) for s in dom for t in dom for u in dom
                      if (s, t) in R and (s, u) in R and (t, u) not in R),
    }
    witnesses = {}
    for name, tuples in candidates.items():
        first = next(tuples, None)
        if first is not None:
            witnesses[name] = first
    return witnesses


def oracle_product(model, tags, wiring, newcomer=None, new_locals=()):
    """A product update with an action model of one event per tag, built
    in full and pruned at the end.  Copy (s, e) is named s tagged
    `tags[e]`, or s itself for a tag of None.  `wiring[a] = (home, links)`
    puts agent a's local states in event `home` and each edge (s, t) out of
    event e at ((s, e), (t, links[e])), or nowhere where that is None;
    agents left out are dropped.  A `newcomer` gets the universal relation
    on the last event and `new_locals` there."""
    def copy(s, e):
        return s if tags[e] is None else s.tagged(tags[e])

    events = range(len(tags))
    states = {copy(s, e) for s in model.states for e in events}
    relations, locs = {}, {}
    for a, (home, links) in wiring.items():
        relations[a] = {(copy(s, e), copy(t, links[e]))
                        for (s, t) in model.relations[a]
                        for e in events if links[e] is not None}
        locs[a] = {copy(s, home) for s in model.locals[a]}
    agents = set(wiring)
    if newcomer is not None:
        last = len(tags) - 1
        block = [copy(s, last) for s in model.states]
        relations[newcomer] = {(s, t) for s in block for t in block}
        locs[newcomer] = {copy(s, last) for s in new_locals}
        agents.add(newcomer)
    valuation = {p: {copy(s, e) for s in sts for e in events}
                 for p, sts in model.valuation.items()}
    return _pruned(model, states, agents, model.props, relations, valuation, locs)


def oracle_doc(model):
    """The canonical document of `model`, made from its set views: every
    list of names sorted, each relation an adjacency map of the sources
    that have a successor, and `meta` only when it has an entry.  Its
    text is `json.dumps(doc, indent=2, sort_keys=True)` plus a newline."""
    def names(states):
        return sorted(s.name for s in states)

    relations = {}
    for a in model.agents:
        targets = {}
        for s, t in model.relations[a]:
            targets.setdefault(s.name, []).append(t.name)
        relations[a] = {s: sorted(ts) for s, ts in targets.items()}
    doc = {"states": names(model.states), "agents": sorted(model.agents),
           "props": sorted(model.props), "relations": relations,
           "valuation": {p: names(model.valuation[p]) for p in model.props},
           "locals": {a: names(model.locals[a]) for a in model.agents}}
    if model.meta:
        doc["meta"] = dict(model.meta)
    return doc


def _dot_escaped(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_quoted(text):
    return '"' + _dot_escaped(text) + '"'


def oracle_dot(model):
    """The DOT text of `model`, written from its set views: states sorted
    and grouped by their last lineage tag (one cluster per tag when there
    is more than one), each labelled with its name, the propositions true
    at it and the agents it is a local state of, then one line per edge
    of each agent's relation.  Every quoted string is escaped."""
    def node(s):
        props = sorted(p for p in model.props if s in model.valuation[p])
        owners = sorted(a for a in model.agents if s in model.locals[a])
        label = [s.name]
        if props:
            label.append(",".join(props))
        if owners:
            label.append("I(" + ",".join(owners) + ")")
        # the label's lines, each escaped, joined by DOT's two-character "\n"
        attrs = ['label="' + "\\n".join(map(_dot_escaped, label)) + '"']
        if owners:
            attrs += ["peripheries=2", "style=filled", 'fillcolor="lightgrey"']
        return f"{_dot_quoted(s.name)} [{', '.join(attrs)}];"

    groups = {}
    for s in sorted(model.states):
        groups.setdefault(s.lineage[-1] if s.lineage else "orig", []).append(s)
    lines = ["digraph model {", "  rankdir=LR;", "  node [shape=circle];"]
    if len(groups) == 1:
        lines += ["  " + node(s) for s in sorted(model.states)]
    else:
        for tag in sorted(groups, key=lambda t: "" if t == "orig" else t):
            lines.append(f"  subgraph cluster_{tag} {{")
            lines.append(f"    label={_dot_quoted(tag)};")
            lines += ["    " + node(s) for s in groups[tag]]
            lines.append("  }")
    for a in sorted(model.agents):
        for s, t in sorted(model.relations[a]):
            lines.append(f"  {_dot_quoted(s.name)} -> {_dot_quoted(t.name)}"
                         f" [label={_dot_quoted(a)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
