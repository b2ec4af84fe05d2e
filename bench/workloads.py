"""The two benchmark workloads.

Each workload builds its inputs from a seed in `setup` (the part timed as
`setup_s`), lists one round of operations in `ops`, and judges every
distinct outcome an operation produced in `judge`, against the independent
computations in `reference.py`.  A round always holds the same operations,
so the share of failed operations is the same in every run.

Operations call the program through module attributes looked up at call
time (`cli.main`, `semantics.holds_at`, ...), so a traced run sees them.
"""

from __future__ import annotations

import io
import json
import os
import random
from typing import Callable, Dict, List, Optional

from epk import cli, formulas, model, semantics, serialize

import gen
import reference as ref

Op = Callable[[], object]

OK, FAILED = "ok", "failed"  # any other verdict is a message saying what is wrong


class Raised(tuple):
    """An exception that escaped an operation: (type name, message)."""

    def __new__(cls, exc: BaseException):
        return super().__new__(cls, (type(exc).__name__, str(exc)[:200]))

    def __str__(self):
        return f"{self[0]}: {self[1]}"


def _cli(argv: List[str]) -> Op:
    def op():
        out, err = io.StringIO(), io.StringIO()
        rc = cli.main(argv, out=out, err=err)
        return rc, out.getvalue(), err.getvalue()
    return op


# ------------------------------------------------------------ check-session

# Query templates: (kind, builder from four agents and two props).  Nested
# belief runs 1 to 4 deep; "ghost" names an agent absent from every model.
_TEMPLATES = [
    ("belief", lambda a, p: ("B", a[0], ("prop", p[0]))),
    ("belief", lambda a, p: ("B", a[0], ("B", a[1], ("or", ("prop", p[0]), ("prop", p[1]))))),
    ("belief", lambda a, p: ("B", a[0], ("not", ("B", a[1], ("B", a[2], ("prop", p[0])))))),
    ("belief", lambda a, p: ("B", a[0], ("B", a[1], ("B", a[2], ("B", a[3], (
        "imp", ("prop", p[0]), ("prop", p[1]))))))),
    ("belief", lambda a, p: ("and", ("not", ("B", a[0], ("prop", p[0]))), ("B", a[1], ("prop", p[1])))),
    ("agency", lambda a, p: ("C", a[0], a[1])),
    ("agency", lambda a, p: ("and", ("P", a[0], a[1]), ("C", a[1], a[2]))),
    ("agency", lambda a, p: ("B", a[0], ("C", a[1], a[2]))),
    ("agency", lambda a, p: ("B", a[0], ("B", a[1], ("P", a[2], a[3])))),
    ("agency", lambda a, p: ("or", ("not", ("P", a[0], "ghost")),
                             ("B", a[0], ("B", a[1], ("B", a[2], ("C", a[2], a[0])))))),
]
# At global scope every belief template runs, and one agency formula: a
# law (C[i,j] & P[i,k] -> P[i,j]) that holds at every state, so the
# program cannot stop early and evaluates C and P at every state.
_GLOBAL_LAW = lambda a, p: ("imp", ("and", ("C", a[0], a[1]), ("P", a[0], a[2])), ("P", a[0], a[1]))  # noqa: E731
DEEP_NOT = 600
# A query's cost is mostly the successor tables it builds, one per agent it
# searches, and on the random models how many it reaches depends on where
# the truth values cut the search short.  The hypercube is serial, so there
# a nested belief that searches three agents always builds all three
# tables, at the same cost for every seed.  Those templates are also asked
# at CUBE_POINTS more hypercube states.  That puts about a third of the
# queries at one cost in the middle of the range, and the median query is
# one of them for every seed, instead of jumping between cost levels as
# the seed changes.
CUBE_POINTS = 12


def _searched(f) -> set:
    """The agents whose relations evaluating `f` searches."""
    if f[0] in ("B", "C", "P"):
        return {f[1]} | (_searched(f[2]) if f[0] == "B" else set())
    return set().union(*(_searched(g) for g in f[1:] if isinstance(g, tuple)))


def _pick_agents(rng: random.Random, agents: List[str]) -> List[str]:
    """Three distinct agents, the first repeated last: every instance of a
    template then touches the same number of distinct relations."""
    ag = rng.sample(agents, 3)
    return ag + [ag[0]]


class CheckSession:
    """Library queries on three ~1000-state models kept in memory."""

    name = "check-session"

    def setup(self, seed: int, work: str) -> None:
        rng = random.Random(seed)
        self.plains = [gen.sparse_random(rng, 1000), gen.local_kd45(rng, 1000), gen.hypercube(10)]
        self.models = []
        for k, m in enumerate(self.plains):
            path = os.path.join(work, f"session{k}.json")
            gen.write_doc(gen.to_doc(m), path)
            self.models.append(serialize.load_model(path))
        per_model = []
        for m in self.plains:
            agents, props = sorted(m.agents), sorted(m.props)
            points = [sorted(m.loc[agents[0]])[0], rng.choice(m.states)]
            extra = rng.sample(m.states, CUBE_POINTS) if m.meta["family"] == "hypercube" else []
            qs = []
            for kind, build in _TEMPLATES:
                f = build(_pick_agents(rng, agents), rng.sample(props, 2))
                deep3 = f[0] == "B" and len(_searched(f)) == 3
                qs += [("state", pt, f) for pt in points + (extra if deep3 else [])]
                qs.append(("agent", rng.choice(agents), f))
            for build in [b for kind, b in _TEMPLATES if kind == "belief"] + [_GLOBAL_LAW]:
                qs.append(("global", None, build(_pick_agents(rng, agents), rng.sample(props, 2))))
            per_model.append(qs)
        # Interleave the models, one query each in turn while each has some.
        self.queries = [(k, *per_model[k][q]) for q in range(max(map(len, per_model)))
                        for k in range(len(self.plains)) if q < len(per_model[k])]
        # Known fault: evaluation recurses once per `~`, so a 600-deep
        # negation escapes as RecursionError.  The verdict is p1's at the
        # hypercube's true world, by parity; the model is seed-independent.
        cube = len(self.plains) - 1
        self.deep = len(self.queries)
        self.queries.append((cube, "state", "1" * 9 + "0", ref.nested_not(DEEP_NOT, "p1")))
        self.texts = [("~" * DEEP_NOT + "p1") if k == self.deep else ref.render(q[3])
                      for k, q in enumerate(self.queries)]
        self.points = {(k, q[2]): model.StateId.parse(q[2])
                       for k, q in enumerate(self.queries) if q[1] == "state"}

    def ops(self) -> List[Op]:
        out = []
        for k, (mi, scope, arg, _f) in enumerate(self.queries):
            m, text = self.models[mi], self.texts[k]
            if scope == "state":
                pt = self.points[(k, arg)]
                out.append(lambda m=m, pt=pt, text=text: semantics.holds_at(m, pt, formulas.parse(text)))
            elif scope == "agent":
                out.append(lambda m=m, a=arg, text=text: semantics.holds_for_agent(m, a, formulas.parse(text)))
            else:
                out.append(lambda m=m, text=text: semantics.holds_globally(m, formulas.parse(text)))
        return out

    def judge(self, k: int, outcome) -> str:
        if isinstance(outcome, Raised):
            return FAILED if k == self.deep else f"query {k} raised {outcome}"
        mi, scope, arg, f = self.queries[k]
        labeller = self._labellers().get(mi)
        sat = labeller.sat(f)
        if scope == "state":
            want = arg in sat
        elif scope == "agent":
            want = self.plains[mi].loc[arg] <= sat
        else:
            want = len(sat) == len(self.plains[mi].states)
        if outcome is not want:
            return f"query {k} ({scope} {arg}: {self.texts[k][:80]}) gave {outcome}, expected {want}"
        return OK

    def _labellers(self) -> Dict[int, ref.Labeller]:
        if not hasattr(self, "_lab"):
            self._lab = {k: ref.Labeller(m) for k, m in enumerate(self.plains)}
        return self._lab

    def describe(self) -> str:
        return (f"{len(self.plains)} models ({', '.join(str(len(m.states)) for m in self.plains)} states, "
                f"{', '.join(str(m.edges()) for m in self.plains)} edges), {len(self.queries)} queries")

    def final_checks(self) -> List[str]:
        return []


# ------------------------------------------------------------- update-chain

# Known faults, on fixed documents: the correct outcome of each is exit 2
# with an `epk: error:` message.  A one-element relation pair escapes as
# ValueError; a string for "states" is read as one state per character.
FAULT_DOCS = {
    "short_pair": {"agents": ["a"], "locals": {"a": ["1"]}, "props": [],
                   "relations": {"a": [["1"]]}, "states": ["1"], "valuation": {}},
    "string_states": {"agents": ["a"], "locals": {"a": ["1"]}, "props": [],
                      "relations": {"a": [["1", "2"]]}, "states": "12", "valuation": {}},
}


def _fault_ops(work: str) -> List[List[str]]:
    argvs = []
    for name, doc in FAULT_DOCS.items():
        path = os.path.join(work, f"fault-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argvs.append([path, "validate"])
    return argvs


CHAIN_SIZES = list(range(10, 56, 4))


class UpdateChain:
    """A chain of the four updates through the CLI, with a read after each,
    plus `validate` on the known-fault documents."""

    name = "update-chain"

    def setup(self, seed: int, work: str) -> None:
        rng = random.Random(seed)
        self.chains = []
        for n in CHAIN_SIZES:
            base = gen.local_kd45(rng, n, n_locals=4, cluster=6)
            path = os.path.join(work, f"chain{n}.json")
            gen.write_doc(gen.to_doc(base), path)
            j_locals = sorted(rng.sample(base.states, 3))
            self.chains.append((base, path, j_locals))
        self.argvs: List[List[str]] = []
        for base, path, j_locals in self.chains:
            f1, f2, f3, f4 = (path.replace(".json", f".{k}.json") for k in range(1, 5))
            h_locals = sorted(s + "@shift" for s in base.loc["b"])
            self.argvs += [
                [path, "update", "lie-online", "--liar", "a", "--new", "j", "--locals", *j_locals, "-o", f1],
                [f1, "check", "--agent", "b", "C[b,j]", "--expect", "true"],
                [f1, "update", "online", "h", "--locals", *h_locals, "-o", f2],
                [f2, "check", "--global", "C[c,h]", "--expect", "true"],
                [f2, "update", "lie-offline", "--liar", "b", "--target", "j", "-o", f3],
                [f3, "check", "--agent", "c", "~P[c,j]", "--expect", "true"],
                [f3, "update", "offline", "h", "-o", f4],
                [f4, "validate", "--mode", "local"],
            ]
        self.n_chain_ops = len(self.argvs)
        self.argvs += _fault_ops(work)

    def ops(self) -> List[Op]:
        return [_cli(argv) for argv in self.argvs]

    def _expected(self):
        """Expected model after each step of each chain, from the definitions."""
        if not hasattr(self, "_exp"):
            self._exp = []
            for base, _path, j_locals in self.chains:
                e1 = ref.lie_online(base, "a", "j", j_locals)
                e2 = ref.online(e1, "h", {s + "@shift" for s in base.loc["b"]})
                e3 = ref.lie_offline(e2, "b", "j")
                e4 = ref.offline(e3, "h")
                self._exp += [(base, e1), (e1, e2), (e2, e3), (e3, e4)]
        return self._exp

    def judge(self, k: int, outcome) -> str:
        if k >= self.n_chain_ops:  # a known-fault document
            ok = not isinstance(outcome, Raised) and outcome[0] == 2 and outcome[2].startswith("epk: error:")
            return OK if ok else FAILED
        if isinstance(outcome, Raised):
            return f"{' '.join(self.argvs[k][1:4])} raised {outcome}"
        rc, out, err = outcome
        argv = self.argvs[k]
        before, after = self._expected()[k // 2]
        if argv[1] == "check":
            ok = rc == 0 and out == "true\n" and not err
            return OK if ok else f"{' '.join(argv[1:])}: rc={rc} out={out!r} err={err[:200]!r}"
        if argv[1] == "validate":
            if rc != 0 or err:
                return f"validate: rc={rc} err={err[:200]!r}"
            bad = ref.check_validate(out, after)
            return OK if bad is None else f"validate after chain step 4: {bad}"
        if rc != 0 or err:
            return f"{' '.join(argv[1:4])}: rc={rc} err={err[:200]!r}"
        bad = _check_update_report(out, before, after, argv[2])
        return OK if bad is None else f"{' '.join(argv[1:4])}: {bad}"

    def final_checks(self) -> List[str]:
        """The files the last round wrote: each must hold the expected model
        and be canonical, i.e. reload and re-serialize to the same bytes."""
        problems = []
        for k, argv in enumerate(self.argvs[:self.n_chain_ops]):
            if argv[1] != "update":
                continue
            path = argv[-1]
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            diff = ref.same_model(ref.plain_from_doc(json.loads(text)), self._expected()[k // 2][1])
            if diff:
                problems.append(f"{path}: {diff} differs from the definition")
            elif serialize.dumps_model(serialize.load_model(path)) != text:
                problems.append(f"{path}: not canonical")
        return problems

    def describe(self) -> str:
        exp = self._expected()
        return (f"{len(self.chains)} chains from {CHAIN_SIZES[0]}-{CHAIN_SIZES[-1]} states, "
                f"{self.n_chain_ops} CLI calls and {len(FAULT_DOCS)} known-fault documents; largest written model "
                f"{max(len(a.states) for _b, a in exp)} states, {max(a.edges() for _b, a in exp)} edges")


def _check_update_report(out: str, before, after, kind: str) -> Optional[str]:
    """The summary `update` prints: state counts, discards and edge deltas."""
    lines = out.splitlines()
    doubled = 2 if kind.startswith("lie") else 1
    discarded = doubled * len(before.states) - len(after.states)
    head = f"{len(before.states)} -> {len(after.states)} states, {discarded} discarded"
    if not lines or not lines[0].endswith(head):
        return f"summary {lines[:1]}, expected ...{head!r}"
    deltas = {}
    for a in sorted(set(before.agents) | set(after.agents)):
        old, new = before.rel.get(a, set()), after.rel.get(a, set())
        add, rem = len(new - old), len(old - new)
        if add or rem:
            deltas[a] = f"  edges[{a}]: +{add} -{rem}"
    printed = {ln.split("]")[0].split("[")[1]: ln for ln in lines if ln.startswith("  edges[")}
    if printed != deltas:
        return f"edge deltas {sorted(printed.values())}, expected {sorted(deltas.values())}"
    return None


WORKLOADS = {w.name: w for w in (CheckSession, UpdateChain)}
