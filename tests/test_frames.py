import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from epk import (FramePropertyReport, KripkeModel, StateId, check_properties, classify_model,
                 holds_globally, is_kd45, is_s5, parse, sat, update_online)
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


class TestReportValue:
    def report(self, **changes):
        fields = dict(agent="a", domain=frozenset({S("1"), S("2")}), reflexive=False,
                      symmetric=True, serial=False, transitive=True, euclidean=True,
                      witnesses={"reflexive": (S("2"),), "serial": (S("2"),)})
        return FramePropertyReport(**{**fields, **changes})

    def test_repr_and_equality(self):
        rep = check_properties(edges(("1", "1")), {S("1"), S("2")}, agent="a")
        assert rep == self.report() and rep != self.report(serial=True)
        assert repr(self.report(domain=frozenset({S("1")}))) == (
            "FramePropertyReport(agent='a', domain=frozenset({StateId('1')}), reflexive=False, "
            "symmetric=True, serial=False, transitive=True, euclidean=True, "
            "witnesses={'reflexive': (StateId('2'),), 'serial': (StateId('2'),)})")

    def test_witnesses_default_to_an_empty_mapping(self):
        rep = FramePropertyReport("a", frozenset(), True, True, True, True, True)
        assert rep.witnesses == {} and len(rep.witnesses) == 0

    def test_the_default_witnesses_cannot_be_changed(self):
        # One default is shared by every report built without witnesses.
        rep = FramePropertyReport("a", frozenset(), True, True, True, True, True)
        with pytest.raises(TypeError):
            rep.witnesses["serial"] = ()
        assert FramePropertyReport("b", frozenset(), True, True, True, True, True).witnesses == {}

    @pytest.mark.parametrize("clone", [
        lambda r: pickle.loads(pickle.dumps(r)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_clones_are_equal(self, clone):
        # A rebuilt frozenset may iterate in another order, so the reprs
        # are compared with the domain sorted.
        rep = self.report()
        other = clone(rep)
        assert type(other) is FramePropertyReport and other == rep
        mine, theirs = (repr(r._replace(domain=sorted(r.domain))) for r in (rep, other))
        assert mine == theirs

    def test_reports_without_witnesses_clone(self):
        # The read-only default is not pickled: the clone gets it again.
        rep = FramePropertyReport("a", frozenset({S("1")}), True, True, True, True, True)
        clones = [pickle.loads(pickle.dumps(rep, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in [*clones, copy.copy(rep), copy.deepcopy(rep)]:
            assert type(other) is FramePropertyReport and other == rep
            with pytest.raises(TypeError):
                other.witnesses["serial"] = ()
            assert other.witnesses == {}

    def test_fields_cannot_be_assigned(self):
        rep = self.report()
        for name in ("agent", "serial", "witnesses"):
            with pytest.raises(AttributeError):
                setattr(rep, name, None)
        assert rep == self.report()


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

    def test_small_classes_read_their_targets_one_by_one(self):
        # In an S5 relation of two-state classes each row has two targets
        # and there are |S|/2 distinct rows, so the targets are read one
        # by one.  Grouped by their distinct rows instead, each row would
        # scan all |S|/2 of them: 10x the states cost 14x the time when
        # read one by one, and 153x when grouped.
        def pairs(n):
            names = [str(k) for k in range(n)]
            return KripkeModel.build(
                states=names, agents=["a"], props=[], valuation={}, locals={"a": names[:1]},
                relations={"a": {s: [s, names[k ^ 1]] for k, s in enumerate(names)}})

        small, large = pairs(300), pairs(3000)
        assert is_s5(classify_model(large, "global")["a"])
        ratio = (best_time(lambda: classify_model(large, "global"))
                 / best_time(lambda: classify_model(small, "global")))
        assert ratio <= 40, f"10x the states took {ratio:.1f}x the time"
