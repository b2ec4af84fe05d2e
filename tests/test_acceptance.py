"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""

import random
import time
import warnings

from epk import (StateId, classify_model, holds_at, holds_for_agent, is_kd45, lie_online,
                 load_model, parse, prune_unreachable, unparse)
from helpers import (figure2_minus_g, fixture_path, random_ast, random_formula,
                     random_local_kd45_model, run_cli)
from laws import check_result, check_update
from oracles import labelling


def S(name):
    return StateId.parse(name)


def report(n, desc, ok, failure=None):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {desc}")
    assert ok, f"criterion {n} failed: {desc}" + (f"; broke {failure}" if failure else "")


FIGURE2_FORMULAS = [
    ("m", "~B[m] p"),
    ("m", "B[m] B[f] p"),
    ("f", "B[f] B[m] p"),
    ("f", "B[f] B[g] p"),
    ("m", "~P[m,g]"),
    ("m", "B[m] ~P[m,g]"),
    ("m", "B[m] B[f] C[f,g]"),
    ("f", "B[f] C[m,g]"),
]


def test_criterion_1_figure2_reproduction():
    m = load_model(fixture_path("figure2"))
    start = time.monotonic()
    ok = all(holds_for_agent(m, agent, parse(text)) is True
             for agent, text in FIGURE2_FORMULAS)
    elapsed = time.monotonic() - start
    report(1, "figure2 formula list all true under agent-relative scope",
           ok and elapsed < 1.0)


def test_criterion_2_frame_checks():
    m = load_model(fixture_path("figure2"))
    glob = classify_model(m, "global")
    ok = (glob["g"].serial is False
          and glob["g"].witnesses["serial"] in ((S("1"),), (S("2"),)))
    loc = classify_model(m, "local")
    ok = ok and all(is_kd45(loc[a]) for a in ("m", "f", "g"))
    report(2, "figure2: R(g) globally non-serial with witness; locally KD45 for all",
           ok)


def test_criterion_3_truthful_update_laws():
    rng = random.Random(1003)
    for _ in range(200):
        base = random_local_kd45_model(rng, min_agents=2)
        args = ("z", {rng.choice(sorted(base.states))})
        formulas = [random_formula(rng, base.agents, base.props, depth=3) for _ in range(5)]
        failure = check_update("online", base, args, formulas)
        j = rng.choice(sorted(base.agents))
        formulas = [random_formula(rng, base.agents - {j}, base.props, depth=3) for _ in range(5)]
        failure = failure or check_update("offline", base, (j,), formulas)
        if failure:
            break
    report(3, "truthful update laws over 200 random locally-KD45 models", not failure, failure)


def test_criterion_4_untruthful_update_laws():
    rng = random.Random(1004)
    draw = random.Random(4)  # the formulas, drawn apart so the models stay those of seed 1004
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(200):
            base = random_local_kd45_model(rng, min_agents=2)
            agents = sorted(base.agents)
            failure = check_update("lie_offline", base, tuple(rng.sample(agents, 2)))
            args = (rng.choice(agents), "z", {rng.choice(sorted(base.states))})
            formulas = [random_formula(draw, agents, base.props, depth=3) for _ in range(3)]
            failure = failure or check_update("lie_online", base, args, formulas)
            if failure:
                break
    report(4, "untruthful update laws over 200 random locally-KD45 models", not failure, failure)


def test_criterion_5_gruffalo_scenario(tmp_path):
    result = lie_online(figure2_minus_g(), "m", "g", {S("3")})
    m = result.model
    ok = ({s.name for s in m.states}
          == {"1@act", "2@act", "1@shift", "2@shift", "3@shift"})
    ok = ok and result.discarded_states == {S("3@act")}
    ok = ok and m.locals["f"] == {S("3@shift")}
    formulas = [parse(text) for text in ("p", "B[f] p", "~B[m] p", "B[m] B[f] p", "P[f,m]")]
    failure = check_result("lie_online", figure2_minus_g(), ("m", "g", {S("3")}), result,
                           formulas)

    # the announced-presence postcondition, via CLI exit statuses
    out_path = str(tmp_path / "gruffalo_after.json")
    ok = ok and run_cli(fixture_path("figure2_minus_g"), "update", "lie-online",
                        "--liar", "m", "--new", "g", "--locals", "3", "-o", out_path)[0] == 0
    for agent in ("f", "g"):
        ok = ok and run_cli(out_path, "check", "--agent", agent, f"C[{agent},g]",
                            "--expect", "true")[0] == 0
    ok = ok and run_cli(out_path, "check", "--agent", "m", "~P[m,g]", "--expect", "true")[0] == 0
    report(5, "gruffalo lie produces the exact 5-state model; CLI confirms it",
           ok and not failure, failure)


def test_criterion_6_oracle_equivalence():
    """The checker and the four updates agree with `bench/reference.py`,
    which imports nothing from `epk`: truth at a state with its labelling,
    and each update's whole result with the one it builds over plain sets."""
    rng = random.Random(1006)
    ok = True
    pairs = 0
    while pairs < 1000 and ok:
        m = random_local_kd45_model(rng)
        for _ in range(10):
            f = random_formula(rng, m.agents, m.props, depth=4, extra_about=["zz"])
            s = rng.choice(sorted(m.states))
            ok = ok and holds_at(m, s, f) == (s.name in labelling(m, f))
            pairs += 1
    failure = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(200):
            base = random_local_kd45_model(rng, min_agents=2)
            agents = sorted(base.agents)
            j = rng.choice(agents)
            locs = {rng.choice(sorted(base.states))}
            updates = [("offline", (j,)), ("online", ("z", locs)),
                       ("lie_offline", tuple(rng.sample(agents, 2))),
                       ("lie_online", (rng.choice(agents), "z", locs))]
            for kind, args in updates:
                failure = failure or check_update(kind, base, args)
            if failure:
                break
    report(6, "production checker and transforms agree with the independent reference",
           ok and not failure, failure)


def test_criterion_7_parser_round_trip():
    rng = random.Random(1007)
    ok = True
    for _ in range(1000):
        f = random_ast(rng, depth=6)
        ok = ok and parse(unparse(f)) == f
        if not ok:
            break
    fixture_strings = [text for _, text in FIGURE2_FORMULAS] + [
        "C[f,g]", "C[g,g]", "~P[m,g]", "B[m] C[f,g]", "p | ~p", "p & ~p",
        "p -> q -> r", "a & b | c", "~B[i] p & q",
    ]
    for text in fixture_strings:
        parse(text)
    report(7, "parse/unparse round-trips 1000 random ASTs; all fixture strings parse", ok)


def test_criterion_8_pruning_soundness():
    rng = random.Random(1008)
    ok = True
    for _ in range(300):
        m = random_local_kd45_model(rng)
        # one anchor per agent keeps pruning legal; extras vary the seed set
        seeds = {rng.choice(sorted(m.locals[a])) for a in m.agents}
        seeds |= {s for s in m.states if rng.random() < 0.3}
        pruned = prune_unreachable(m, seeds)
        for _ in range(5):
            f = random_formula(rng, m.agents, m.props, depth=3)
            truth = labelling(m, f)
            for s in sorted(pruned.states):
                ok = ok and holds_at(pruned, s, f) == (s.name in truth)
        if not ok:
            break
    report(8, "truth at every retained state unchanged by pruning", ok)
