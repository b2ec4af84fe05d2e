import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epk import (KripkeModel, ModelError, StateId, holds_at, prune_unreachable,
                 reachable_from, replicate_with_lineage, subjective_relation,
                 successors)
from helpers import figure2, random_formula, random_local_kd45_model


def S(name):
    return StateId.parse(name)


class TestStateId:
    def test_parse_and_name(self):
        s = S("3@act@shift")
        assert s.base == "3"
        assert s.lineage == ("act", "shift")
        assert s.name == "3@act@shift"

    def test_tagged_appends(self):
        assert S("1").tagged("act").tagged("shift") == S("1@act@shift")

    def test_bad_tag_rejected(self):
        with pytest.raises(ModelError):
            StateId("1", ("bogus",))


class TestIndex:
    def test_built_once_per_model(self):
        m = figure2()
        assert m.index is m.index

    def test_build_makes_one_object_per_state(self):
        m = figure2()
        states = {s.name: s for s in m.states}
        for edges in m.relations.values():
            for (s, t) in edges:
                assert s is states[s.name] and t is states[t.name]

    def test_successors_agree_with_the_relation(self):
        rng = random.Random(4)
        for _ in range(30):
            m = random_local_kd45_model(rng)
            for a in m.agents:
                for s in m.states:
                    assert successors(m, a, s) == {t for (u, t) in m.relations[a] if u == s}


class TestValidation:
    def test_relation_endpoint_must_exist(self):
        with pytest.raises(ModelError, match="undeclared state"):
            KripkeModel.build(states=["1"], agents=["a"], props=[],
                              relations={"a": [("1", "2")]}, valuation={},
                              locals={"a": ["1"]})

    def test_locals_must_be_nonempty(self):
        with pytest.raises(ModelError, match="non-empty"):
            KripkeModel.build(states=["1"], agents=["a"], props=[],
                              relations={"a": []}, valuation={}, locals={"a": []})

    def test_every_agent_needs_a_relation_entry(self):
        with pytest.raises(ModelError, match="relations"):
            KripkeModel.build(states=["1"], agents=["a", "b"], props=[],
                              relations={"a": []}, valuation={},
                              locals={"a": ["1"], "b": ["1"]})


class TestSuccessors:
    def test_figure2_m_from_1(self):
        assert successors(figure2(), "m", S("1")) == {S("1"), S("2")}

    def test_figure2_g_from_1_is_empty(self):
        assert successors(figure2(), "g", S("1")) == frozenset()

    def test_reflexive_singleton(self):
        m = KripkeModel.build(states=["s"], agents=["i"], props=[],
                              relations={"i": [("s", "s")]}, valuation={},
                              locals={"i": ["s"]})
        assert successors(m, "i", S("s")) == {S("s")}

    def test_unknown_agent_named_in_error(self):
        with pytest.raises(ModelError, match="zz"):
            successors(figure2(), "zz", S("1"))

    def test_unknown_state_named_in_error(self):
        with pytest.raises(ModelError, match="9"):
            successors(figure2(), "m", S("9"))


class TestSubjectiveRelation:
    def test_figure2_m(self):
        got = subjective_relation(figure2(), "m")
        assert got == {(S("1"), S("1")), (S("2"), S("2")),
                       (S("1"), S("2")), (S("2"), S("1"))}

    def test_figure2_f(self):
        assert subjective_relation(figure2(), "f") == {(S("3"), S("3"))}

    def test_full_domain_is_identity(self):
        m = figure2()
        full = KripkeModel.build(
            states=["1", "2", "3"], agents=["m", "f", "g"], props=["p"],
            relations={a: [(s.name, t.name) for (s, t) in m.relations[a]]
                       for a in m.agents},
            valuation={"p": ["1", "3"]},
            locals={a: ["1", "2", "3"] for a in m.agents})
        for a in full.agents:
            assert subjective_relation(full, a) == full.relations[a]


class TestReachability:
    def test_figure2_from_1_all_agents(self):
        m = figure2()
        assert reachable_from(m, {S("1")}, m.agents) == {S("1"), S("2"), S("3")}

    def test_figure2_from_3_only_loops(self):
        m = figure2()
        assert reachable_from(m, {S("3")}, m.agents) == {S("3")}

    def test_empty_seeds(self):
        m = figure2()
        assert reachable_from(m, frozenset(), m.agents) == frozenset()

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_idempotent(self, seed):
        rng = random.Random(seed)
        m = random_local_kd45_model(rng)
        states = sorted(m.states)
        seeds = frozenset(rng.sample(states, rng.randint(0, len(states))))
        closure = reachable_from(m, seeds, m.agents)
        assert seeds <= closure
        assert reachable_from(m, closure, m.agents) == closure


class TestPrune:
    def test_figure2_all_locals_keeps_everything(self):
        m = figure2()
        seeds = m.locals["m"] | m.locals["f"] | m.locals["g"]
        assert prune_unreachable(m, seeds) == m

    def test_disconnected_component_dropped(self):
        m = KripkeModel.build(states=["a", "b"], agents=["i"], props=[],
                              relations={"i": [("a", "a"), ("b", "b")]},
                              valuation={}, locals={"i": ["a"]})
        pruned = prune_unreachable(m, {S("a")})
        assert pruned.states == {S("a")}
        assert pruned.relations["i"] == {(S("a"), S("a"))}

    def test_emptying_locals_is_an_error(self):
        m = KripkeModel.build(states=["a", "b"], agents=["i", "k"], props=[],
                              relations={"i": [("a", "a")], "k": [("b", "b")]},
                              valuation={}, locals={"i": ["a"], "k": ["b"]})
        with pytest.raises(ModelError, match="k"):
            prune_unreachable(m, {S("a")})

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_never_adds(self, seed):
        rng = random.Random(seed)
        m = random_local_kd45_model(rng)
        seeds = frozenset().union(*m.locals.values())
        once = prune_unreachable(m, seeds)
        assert once.states <= m.states
        assert prune_unreachable(once, seeds & once.states) == once


class TestReplicate:
    def test_act_renaming(self):
        copy = replicate_with_lineage(figure2(), "act")
        assert copy.states == {S("1@act"), S("2@act"), S("3@act")}
        assert (S("1@act"), S("2@act")) in copy.relations["m"]
        assert copy.locals["m"] == {S("1@act"), S("2@act")}

    def test_single_state_shift(self):
        m = KripkeModel.build(states=["s"], agents=["i"], props=[],
                              relations={"i": []}, valuation={}, locals={"i": ["s"]})
        assert replicate_with_lineage(m, "shift").states == {S("s@shift")}

    def test_lineage_appends_across_applications(self):
        twice = replicate_with_lineage(replicate_with_lineage(figure2(), "act"), "shift")
        assert all(s.lineage == ("act", "shift") for s in twice.states)

    def test_preserves_satisfaction(self):
        rng = random.Random(7)
        m = figure2()
        copy = replicate_with_lineage(m, "act")
        for _ in range(50):
            f = random_formula(rng, m.agents, m.props, depth=3)
            for s in m.states:
                assert holds_at(m, s, f) == holds_at(copy, s.tagged("act"), f)
