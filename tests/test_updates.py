import copy
import pickle
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from epk import (KripkeModel, ModelError, StateId, UpdateResult, holds_for_agent, lie_offline,
                 lie_online, parse, update_offline, update_online)
from helpers import figure2, figure2_minus_g, random_formula, random_local_kd45_model
from laws import check_result, check_update


def S(name):
    return StateId.parse(name)


def load_cube3():
    from epk import load_model
    from helpers import fixture_path
    return load_model(fixture_path("cube3"))


class TestUpdateResult:
    def test_fields_repr_and_equality(self):
        res = update_offline(figure2(), "g")
        assert res == UpdateResult(model=res.model, discarded_states=res.discarded_states,
                                   added_edges=res.added_edges, removed_edges=res.removed_edges)
        assert res != UpdateResult(res.model, frozenset([S("1")]), res.added_edges,
                                   res.removed_edges)
        assert repr(res) == (f"UpdateResult(model={res.model!r}, discarded_states=frozenset(), "
                             f"added_edges={{'f': 0, 'g': 0, 'm': 0}}, "
                             f"removed_edges={{'f': 0, 'g': 1, 'm': 0}})")

    @staticmethod
    def sorted_repr(res):
        # A rebuilt frozenset may iterate in another order, so the reprs
        # are compared with the discarded states sorted.
        return repr(res._replace(discarded_states=sorted(res.discarded_states)))

    def test_pickle_round_trips(self):
        res = lie_offline(figure2(), "f", "g")
        assert len(res.discarded_states) == 2
        other = pickle.loads(pickle.dumps(res))
        assert type(other) is UpdateResult and other == res
        assert self.sorted_repr(other) == self.sorted_repr(res)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_pickle_protocol_round_trips(self, protocol):
        res = lie_offline(figure2(), "f", "g")
        other = pickle.loads(pickle.dumps(res, protocol))
        assert type(other) is UpdateResult and other == res
        assert self.sorted_repr(other) == self.sorted_repr(res)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
    def test_copies_are_equal(self, clone):
        res = lie_offline(figure2(), "f", "g")
        other = clone(res)
        assert type(other) is UpdateResult and other == res
        assert self.sorted_repr(other) == self.sorted_repr(res)

    def test_fields_cannot_be_assigned(self):
        res = update_offline(figure2(), "g")
        with pytest.raises(AttributeError):
            res.model = figure2()
        assert "g" not in res.model.agents


class TestUpdateOffline:
    def test_figure2_drop_g(self):
        res = update_offline(figure2(), "g")
        m = res.model
        assert m.states == {S("1"), S("2"), S("3")}
        assert m.agents == {"m", "f"}
        assert res.discarded_states == frozenset()
        assert holds_for_agent(m, "f", parse("~P[f,g]"))
        assert holds_for_agent(m, "m", parse("~P[m,g]"))

    def test_cube3_drop_v1_discards_disconnected_half(self):
        res = update_offline(load_cube3(), "v1")
        assert res.discarded_states == {S("000"), S("001"), S("010"), S("011")}
        assert len(res.model.states) == 4

    def test_nothing_to_prune(self):
        m = KripkeModel.build(states=["s"], agents=["i", "j"], props=[],
                              relations={"i": [("s", "s")], "j": [("s", "s")]},
                              valuation={}, locals={"i": ["s"], "j": ["s"]})
        res = update_offline(m, "j")
        assert res.model.agents == {"i"}
        assert len(res.model.states) == 1

    def test_unknown_agent(self):
        with pytest.raises(ModelError):
            update_offline(figure2(), "zz")


class TestUpdateOnline:
    def test_add_g_back(self):
        res = update_online(figure2_minus_g(), "g", {S("3")})
        m = res.model
        assert len(m.relations["g"]) == 9
        assert holds_for_agent(m, "m", parse("C[m,g]"))
        assert holds_for_agent(m, "f", parse("C[f,g]"))
        assert holds_for_agent(m, "g", parse("C[g,g]"))

    def test_single_state(self):
        base = KripkeModel.build(states=["s"], agents=["i"], props=[],
                                 relations={"i": [("s", "s")]}, valuation={},
                                 locals={"i": ["s"]})
        m = update_online(base, "j", {S("s")}).model
        assert m.relations["j"] == {(S("s"), S("s"))}
        assert holds_for_agent(m, "i", parse("C[i,j]"))
        assert holds_for_agent(m, "j", parse("C[j,j]"))

    def test_state_count_preserved(self):
        rng = random.Random(23)
        for _ in range(30):
            base = random_local_kd45_model(rng)
            locs = {rng.choice(sorted(base.states))}
            res = update_online(base, "z", locs)
            assert res.model.states == base.states
            assert res.discarded_states == frozenset()

    def test_already_present(self):
        with pytest.raises(ModelError):
            update_online(figure2(), "g", {S("3")})

    def test_empty_locals(self):
        with pytest.raises(ModelError):
            update_online(figure2_minus_g(), "g", frozenset())


class TestLieOffline:
    def test_figure2_f_lies_about_g(self):
        res = lie_offline(figure2(), "f", "g")
        m = res.model
        assert m.locals["m"] == {S("1@shift"), S("2@shift")}
        assert m.locals["f"] == {S("3@act")}
        assert holds_for_agent(m, "m", parse("~P[m,g]"))
        assert holds_for_agent(m, "f", parse("C[f,g]"))
        assert holds_for_agent(m, "g", parse("C[g,g]"))
        assert holds_for_agent(m, "f", parse("B[f] ~P[m,g]"))

    def test_liar_believes_the_lie_landed(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(60):
            base = random_local_kd45_model(rng, min_agents=3)
            i, j = rng.sample(sorted(base.agents), 2)
            if not all(holds_for_agent(base, k, parse(f"C[{k},{j}]"))
                       for k in base.agents):
                continue
            assert check_update("lie_offline", base, (i, j)) is None
            checked += 1
        assert checked > 5

    def test_vacuous_lie_with_two_agents(self):
        base = figure2_minus_g()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = lie_offline(base, "m", "f")
        m = res.model
        # the orphan shift replica is pruned; what remains is the act copy
        assert m.states == {s.tagged("act") for s in base.states}
        for f in ("p", "~p", "B[m] p", "B[f] p"):
            for a in ("m", "f"):
                assert holds_for_agent(m, a, parse(f)) == holds_for_agent(base, a, parse(f))

    def test_warns_when_target_was_not_certain(self):
        # m never saw a g-edge, so C[m,g] fails before the lie
        with pytest.warns(UserWarning, match="C\\[m,g\\]"):
            lie_offline(figure2(), "m", "g")

    def test_liar_must_differ_from_target(self):
        with pytest.raises(ModelError):
            lie_offline(figure2(), "g", "g")


class TestLieOnline:
    def test_gruffalo_construction(self):
        res = lie_online(figure2_minus_g(), "m", "g", {S("3")})
        m = res.model
        assert {s.name for s in m.states} == {"1@act", "2@act", "1@shift", "2@shift", "3@shift"}
        assert res.discarded_states == {S("3@act")}
        assert m.locals["m"] == {S("1@act"), S("2@act")}
        assert m.locals["f"] == {S("3@shift")}
        assert m.locals["g"] == {S("3@shift")}
        assert holds_for_agent(m, "f", parse("C[f,g]"))
        assert holds_for_agent(m, "g", parse("C[g,g]"))
        assert holds_for_agent(m, "m", parse("~P[m,g]"))
        assert holds_for_agent(m, "m", parse("B[m] C[f,g]"))

    def test_postconditions_random(self):
        rng = random.Random(37)
        for _ in range(60):
            base = random_local_kd45_model(rng, min_agents=2)
            i = rng.choice(sorted(base.agents))
            locs = {rng.choice(sorted(base.states))}
            assert check_update("lie_online", base, (i, "z", locs)) is None

    def test_growth_bound(self):
        rng = random.Random(41)
        for _ in range(60):
            base = random_local_kd45_model(rng)
            i = rng.choice(sorted(base.agents))
            locs = {rng.choice(sorted(base.states))}
            assert check_update("lie_online", base, (i, "z", locs)) is None

    def test_new_agent_must_be_fresh(self):
        with pytest.raises(ModelError):
            lie_online(figure2(), "m", "f", {S("3")})


class TestPreservationAndComposition:
    def test_jfree_preservation_truthful(self):
        rng = random.Random(43)
        for _ in range(50):
            base = random_local_kd45_model(rng, min_agents=2)
            j = rng.choice(sorted(base.agents))
            survivors = sorted(base.agents - {j})
            try:
                off = update_offline(base, j)
            except ModelError:
                continue  # pruning emptied someone's locals
            formulas = [random_formula(rng, survivors, base.props, depth=3) for _ in range(4)]
            assert not any(j in oracles.agents_of(f) for f in formulas)
            assert check_result("offline", base, (j,), off, formulas) is None

    def test_jfree_preservation_lies(self):
        rng = random.Random(47)
        for _ in range(40):
            base = random_local_kd45_model(rng, min_agents=2)
            i = rng.choice(sorted(base.agents))
            locs = {rng.choice(sorted(base.states))}
            formulas = [random_formula(rng, base.agents, base.props, depth=3) for _ in range(4)]
            assert check_update("lie_online", base, (i, "z", locs), formulas) is None

    def test_online_then_offline_restores_jfree_truth(self):
        rng = random.Random(53)
        for _ in range(40):
            base = random_local_kd45_model(rng)
            locs = {rng.choice(sorted(base.states))}
            roundtrip = update_offline(update_online(base, "z", locs).model, "z").model
            for _ in range(4):
                f = random_formula(rng, base.agents, base.props, depth=3)
                for k in sorted(base.agents):
                    assert holds_for_agent(roundtrip, k, f) == holds_for_agent(base, k, f)

    def test_deterministic(self):
        assert lie_online(figure2_minus_g(), "m", "g", {S("3")}).model \
            == lie_online(figure2_minus_g(), "m", "g", {S("3")}).model

    def test_audit_counts_match_diff(self):
        base = figure2()
        res = update_offline(base, "g")
        assert res.removed_edges["g"] == 1
        assert sum(res.added_edges.values()) == 0
        on = update_online(figure2_minus_g(), "g", {S("3")})
        assert on.added_edges["g"] == 9
        assert sum(on.removed_edges.values()) == 0


def larger_model(rng):
    """A random locally-KD45 model of 30 to 50 states and two or three agents."""
    return random_local_kd45_model(rng, min_states=30, max_states=50, min_agents=2,
                                   max_block=8, noise=0.1)


class TestLargerModels:
    @given(st.integers(0, 10**9))
    @settings(max_examples=12, deadline=None)
    def test_updates_agree_with_oracles(self, seed):
        rng = random.Random(seed)
        base = larger_model(rng)
        agents = sorted(base.agents)
        i, j = rng.sample(agents, 2)
        locs = set(rng.sample(sorted(base.states), rng.randint(1, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for kind, args in [("offline", (j,)), ("online", ("z", locs)),
                               ("lie_offline", (i, j)), ("lie_online", (i, "z", locs))]:
                assert check_update(kind, base, args) is None

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_update_laws(self, seed):
        rng = random.Random(seed)
        base = larger_model(rng)
        agents = sorted(base.agents)
        i, j = rng.sample(agents, 2)
        locs = {rng.choice(sorted(base.states))}
        formulas = [random_formula(rng, agents, base.props, depth=3) for _ in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for kind, args in [("online", ("z", locs)), ("offline", (j,)),
                               ("lie_offline", (i, j)), ("lie_online", (i, "z", locs))]:
                assert check_update(kind, base, args, formulas) is None
