"""The tests' oracles: what each result should be, worked out apart from
the production modules.

Truth values and update results come from `bench/reference.py`, which
also judges every benchmark run and imports nothing from `epk`: it works
on plain string sets (`gen.Plain`) and tuple formulas.  `plain` turns a
model into that form through its canonical document, `as_tuple` turns a
formula into the reference's tuples, and `labelling` gives the states
where a formula holds.  `ORACLES[kind]` gives the whole result of an
update as the reference makes it: the plain model, the names of the
states pruned away, and the edges added and removed per agent.
`oracle_product` builds a product update the same way, over plain sets.
`oracle_doc`, `oracle_dot` and `oracle_frame_witnesses` are written here
from a model's set views.  Of `epk`, only the formula nodes are imported.
"""

import reference
from epk.formulas import (And, Believes, CertainAgent, Implies, Not, Or,
                          PossibleAgent, Prop)
from gen import Plain

_KINDS = {Prop: "prop", Not: "not", And: "and", Or: "or", Implies: "imp", Believes: "B",
          CertainAgent: "C", PossibleAgent: "P"}


def plain(model):
    """`model` as the reference's plain value, read from its canonical document."""
    return reference.plain_from_doc(oracle_doc(model))


def labelling(model, f):
    """The names of the states of `model` where `f` holds, as the
    reference's `Labeller` finds them."""
    return reference.Labeller(plain(model)).sat(as_tuple(f))


def as_tuple(f):
    """`f` as the reference's tuple formula, one tuple per distinct node, so
    a subformula that `f` shares is shared in the tuple too.  The fields of
    each node, children in place, follow its kind, as in ("B", i, f)."""
    done = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if id(g) in done:
            continue
        fields = [getattr(g, name) for name in g.__match_args__]
        kids = [x for x in fields if not isinstance(x, str) and id(x) not in done]
        if kids:  # g again, under its children
            stack += (g, *kids)
            continue
        done[id(g)] = (_KINDS[type(g)], *(x if isinstance(x, str) else done[id(x)]
                                          for x in fields))
    return done[id(f)]


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


def edge_counts(before, after):
    """Per agent of either plain model, the number of edges `after` adds to
    `before` and the number it removes, as set differences of edges by
    state name."""
    added, removed = {}, {}
    for a in {*before.agents, *after.agents}:
        old, new = before.rel.get(a, set()), after.rel.get(a, set())
        added[a], removed[a] = len(new - old), len(old - new)
    return added, removed


def _whole(before, made, after):
    """The whole result of an update of the plain model `before` that made
    the states `made` and kept `after` of them: `after`, the names of the
    states pruned away, and the edges added and removed per agent."""
    return (after, set(made) - set(after.states), *edge_counts(before, after))


def _update(construct, tags):
    """The oracle of the update that `construct`s its plain result from a
    plain model and the update's arguments, sets of states by name.  It
    makes a copy of each state per tag of `tags`, None keeping the name."""
    def oracle(model, *args):
        before = plain(model)
        after = construct(before, *(a if isinstance(a, str) else {s.name for s in a}
                                    for a in args))
        return _whole(before, [s if tag is None else reference._tag(s, tag)
                               for tag in tags for s in before.states], after)
    return oracle


ORACLES = {"online": _update(reference.online, (None,)),
           "offline": _update(reference.offline, (None,)),
           "lie_offline": _update(reference.lie_offline, ("act", "shift")),
           "lie_online": _update(reference.lie_online, ("act", "shift"))}


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
    """The whole result, as `ORACLES` give it, of a product update with an
    action model of one event per tag, built in full over plain sets and
    pruned at the end by `reference._prune`.  Copy (s, e) is named s
    tagged `tags[e]`, or s itself for a tag of None.  `wiring[a] = (home, links)` puts agent a's
    local states in event `home` and each edge (s, t) out of event e at
    ((s, e), (t, links[e])), or nowhere where that is None; agents left
    out are dropped.  A `newcomer` gets the universal relation on the
    last event and `new_locals` there."""
    def copy(s, e):
        return s if tags[e] is None else reference._tag(s, tags[e])

    m = plain(model)
    events, last = range(len(tags)), len(tags) - 1
    rel, loc = {}, {}
    for a, (home, links) in wiring.items():
        rel[a] = {(copy(s, e), copy(t, links[e]))
                  for (s, t) in m.rel[a] for e in events if links[e] is not None}
        loc[a] = {copy(s, home) for s in m.loc[a]}
    if newcomer is not None:
        block = [copy(s, last) for s in m.states]
        rel[newcomer] = {(s, t) for s in block for t in block}
        loc[newcomer] = {copy(s.name, last) for s in new_locals}
    made = [copy(s, e) for s in m.states for e in events]
    val = {p: {copy(s, e) for s in v for e in events} for p, v in m.val.items()}
    after = reference._prune(Plain(made, list(rel), m.props, rel, val, loc, m.meta),
                             set().union(*loc.values()))
    return _whole(m, made, after)


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
