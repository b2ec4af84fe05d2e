import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from epk import (StateId, check_properties, classify_model, holds_globally, is_kd45, is_s5,
                 parse, sat, update_online)
from epk.frames import PROPERTIES
from epk.model import ModelError
from helpers import best_time, figure2, random_local_kd45_model, random_sparse_model


def S(name):
    return StateId.parse(name)


def edges(*pairs):
    return frozenset((S(a), S(b)) for a, b in pairs)


class TestCheckProperties:
    def test_loop_at_3_not_serial_over_three_states(self):
        rep = check_properties(edges(("3", "3")), {S("1"), S("2"), S("3")})
        assert rep.serial is False
        assert rep.witnesses["serial"] == (S("1"),)

    def test_loop_at_3_over_its_own_state(self):
        rep = check_properties(edges(("3", "3")), {S("3")})
        assert rep.serial and rep.transitive and rep.euclidean
        assert rep.reflexive and rep.symmetric

    def test_universal_relation_is_an_equivalence(self):
        dom = {S("a"), S("b")}
        rep = check_properties(frozenset((s, t) for s in dom for t in dom), dom)
        assert all(getattr(rep, p) for p in PROPERTIES)
        assert rep.witnesses == {}

    def test_endpoint_outside_domain_errors(self):
        with pytest.raises(ModelError, match="outside domain"):
            check_properties(edges(("1", "2")), {S("1")})

    def test_witnesses_replay(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 5)
            dom = frozenset(StateId(str(k)) for k in range(n))
            rel = frozenset((s, t) for s in dom for t in dom if rng.random() < 0.4)
            rep = check_properties(rel, dom)
            w = rep.witnesses
            if "reflexive" in w:
                (s,) = w["reflexive"]
                assert (s, s) not in rel
            if "serial" in w:
                (s,) = w["serial"]
                assert not any(u == s for (u, _) in rel)
            if "symmetric" in w:
                s, t = w["symmetric"]
                assert (s, t) in rel and (t, s) not in rel
            if "transitive" in w:
                s, t, u = w["transitive"]
                assert (s, t) in rel and (t, u) in rel and (s, u) not in rel
            if "euclidean" in w:
                s, t, u = w["euclidean"]
                assert (s, t) in rel and (s, u) in rel and (t, u) not in rel


class TestClassify:
    def test_figure2_global_g_not_serial(self):
        reports = classify_model(figure2(), "global")
        assert reports["g"].serial is False
        assert reports["g"].witnesses["serial"] in ((S("1"),), (S("2"),))

    def test_figure2_local_all_kd45(self):
        reports = classify_model(figure2(), "local")
        for a in ("m", "f", "g"):
            assert reports[a].serial and reports[a].transitive and reports[a].euclidean

    def test_local_domains_are_closures(self):
        reports = classify_model(figure2(), "local")
        assert reports["m"].domain == {S("1"), S("2")}
        assert reports["f"].domain == {S("3")}
        assert reports["g"].domain == {S("3")}

    def test_bad_mode(self):
        with pytest.raises(ModelError):
            classify_model(figure2(), "sideways")


class TestSystems:
    def test_all_true_report_is_both(self):
        dom = {S("a")}
        rep = check_properties(edges(("a", "a")), dom)
        assert is_kd45(rep) and is_s5(rep)

    def test_kd45_without_reflexivity_is_not_s5(self):
        # single edge cluster: 1 -> 2 -> 2
        rep = check_properties(edges(("1", "2"), ("2", "2")), {S("1"), S("2")})
        assert is_kd45(rep) and not is_s5(rep)

    def test_every_s5_relation_is_kd45(self):
        rng = random.Random(17)
        found = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            dom = frozenset(StateId(str(k)) for k in range(n))
            rel = frozenset((s, t) for s in dom for t in dom if rng.random() < 0.5)
            rep = check_properties(rel, dom)
            if is_s5(rep):
                found += 1
                assert is_kd45(rep)
        assert found > 0


def random_relation(rng, n):
    """A relation on n states that is often close to a frame class: random,
    an equivalence, or KD45-shaped (every state points into one cluster),
    then with up to two edges flipped.  Names carry lineage tags, so the
    states' order differs from their names' order."""
    dom = [StateId(str(k), rng.choice([(), ("act",), ("shift", "act")])) for k in range(n)]
    dom = sorted(set(dom))
    kind = rng.choice(["random", "equivalence", "kd45"])
    if kind == "random":
        p = rng.random()
        rel = {(s, t) for s in dom for t in dom if rng.random() < p}
    elif kind == "equivalence":
        block = {s: rng.randrange(3) for s in dom}
        rel = {(s, t) for s in dom for t in dom if block[s] == block[t]}
    else:
        cluster = rng.sample(dom, rng.randint(1, len(dom)))
        rel = {(s, t) for s in dom for t in cluster}
    for _ in range(rng.randint(0, 2)):
        rel ^= {(rng.choice(dom), rng.choice(dom))}
    return frozenset(rel), frozenset(dom)


class TestAgainstDefinitions:
    @given(st.integers(0, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_flags_and_least_witnesses(self, seed):
        rng = random.Random(seed)
        rel, dom = random_relation(rng, rng.randint(1, 40))
        rep = check_properties(rel, dom)
        expected = oracles.oracle_frame_witnesses(rel, dom)
        assert rep.witnesses == expected
        for p in PROPERTIES:
            assert getattr(rep, p) == (p not in expected)


class TestComplexity:
    def test_universal_relation_costs_a_constant_factor_of_building_it(self):
        # Each property is one mask test per distinct row and target, so
        # checking a relation costs a constant factor of building it.  The universal
        # relation is the worst case for a check that walks the successors
        # of every edge: m edges of n states each, O(n^3).  A ratio of
        # best-of-k times stays stable where wall-clock does not.
        dom = frozenset(StateId(str(k)) for k in range(240))
        build = lambda: frozenset((s, t) for s in dom for t in dom)  # noqa: E731
        rel = build()
        rep = check_properties(rel, dom)
        assert all(getattr(rep, p) for p in PROPERTIES)
        ratio = best_time(lambda: check_properties(rel, dom)) / best_time(build)
        assert ratio <= 20, f"check_properties took {ratio:.1f}x building the relation"

    def test_universal_block_costs_a_constant_factor_of_a_belief_query(self):
        # The newcomer of an online update holds the universal relation:
        # 10^6 edges, but one distinct row.  Each property is tested once
        # per distinct row, so the report costs about what a belief query
        # over the same rows costs; tested once per edge, it cost |S|^2.
        base = random_sparse_model(random.Random(1), 1000)
        m = update_online(base, "j", [base.index.order[0]]).model
        reports = classify_model(m, "global")
        assert is_s5(reports["j"]) and is_kd45(reports["j"])
        query = parse("B[j] p")
        ratio = (best_time(lambda: classify_model(m, "global"))
                 / best_time(lambda: sat(m, query)))
        assert ratio <= 20, f"classify_model took {ratio:.1f}x a belief query"
