import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from epk import (KripkeModel, ModelError, StateId, holds_at, holds_for_agent,
                 holds_globally, parse, presence_at, sat)
from epk.formulas import And, Believes, CertainAgent, Implies, Not, PossibleAgent
from epk.frames import check_properties
from helpers import (figure2, random_formula, random_local_kd45_model,
                     random_sparse_model)


def S(name):
    return StateId.parse(name)


class TestPresence:
    def test_figure2_g_present_at_3(self):
        assert presence_at(figure2(), "g", S("3")) is True

    def test_figure2_g_absent_at_1(self):
        assert presence_at(figure2(), "g", S("1")) is False

    def test_agent_not_in_model_is_absent_everywhere(self):
        m = figure2()
        assert all(presence_at(m, "zz", s) is False for s in m.states)

    def test_unknown_state_errors(self):
        with pytest.raises(ModelError, match="9"):
            presence_at(figure2(), "g", S("9"))


class TestHoldsAt:
    def test_figure2_belief_about_presence(self):
        assert holds_at(figure2(), S("3"), parse("B[f] C[m,g]")) is True

    def test_figure2_m_unsure_of_p(self):
        assert holds_at(figure2(), S("1"), parse("B[m] p")) is False

    def test_vacuous_box_and_empty_diamond(self):
        m = KripkeModel.build(states=["s"], agents=["i"], props=[],
                              relations={"i": []}, valuation={}, locals={"i": ["s"]})
        assert holds_at(m, S("s"), parse("C[i,j]")) is True
        assert holds_at(m, S("s"), parse("P[i,j]")) is False

    def test_unknown_prop_errors(self):
        with pytest.raises(ModelError, match="zzz"):
            holds_at(figure2(), S("1"), parse("zzz"))

    def test_unknown_left_index_errors(self):
        with pytest.raises(ModelError, match="zz"):
            holds_at(figure2(), S("1"), parse("C[zz,m]"))

    def test_absent_right_index_is_fine(self):
        assert holds_at(figure2(), S("1"), parse("P[m,zz]")) is False


class TestSat:
    def test_mask_numbers_states_in_sorted_order(self):
        m = figure2()
        assert m.index.order == (S("1"), S("2"), S("3"))
        assert sat(m, parse("p")) == 0b101
        assert sat(m, parse("C[f,g]")) == 0b111
        assert sat(m, parse("P[m,g]")) == 0b100

    def test_subformula_shared_by_two_parents(self):
        m = figure2()
        g = parse("B[m] p")
        assert sat(m, And(g, Not(g))) == 0

    def test_leftmost_unknown_symbol_is_reported(self):
        with pytest.raises(ModelError, match="zzz"):
            sat(figure2(), parse("zzz & B[yy] p"))
        with pytest.raises(ModelError, match="yy"):
            sat(figure2(), parse("B[yy] zzz"))


class TestHoldsForAgent:
    def test_figure2_m_unaware_of_g(self):
        assert holds_for_agent(figure2(), "m", parse("~P[m,g]")) is True

    def test_figure2_f_nested_belief(self):
        assert holds_for_agent(figure2(), "f", parse("B[f] B[g] p")) is True

    def test_figure2_m_about_f_about_g(self):
        assert holds_for_agent(figure2(), "m", parse("B[m] B[f] C[f,g]")) is True

    def test_unknown_agent_errors(self):
        with pytest.raises(ModelError):
            holds_for_agent(figure2(), "zz", parse("p"))

    def test_is_conjunction_over_locals(self):
        rng = random.Random(11)
        for _ in range(40):
            m = random_local_kd45_model(rng)
            f = random_formula(rng, m.agents, m.props, depth=3)
            for a in m.agents:
                expected = all(holds_at(m, s, f) for s in m.locals[a])
                assert holds_for_agent(m, a, f) == expected


class TestHoldsGlobally:
    def test_tautology(self):
        assert holds_globally(figure2(), parse("p | ~p")) is True

    def test_p_fails_at_state_2(self):
        assert holds_globally(figure2(), parse("p")) is False

    def test_everyone_reaches_g_via_f(self):
        assert holds_globally(figure2(), parse("C[f,g]")) is True


class TestProperties:
    def test_diamond_box_duality(self):
        rng = random.Random(3)
        for _ in range(40):
            m = random_local_kd45_model(rng)
            agents = sorted(m.agents)
            i = rng.choice(agents)
            j = rng.choice(agents + ["zz"])
            for s in m.states:
                dual = Not(CertainAgent(i, j))
                # P[i,j] iff not "every i-successor lacks a j-edge"
                lhs = holds_at(m, s, PossibleAgent(i, j))
                rhs = not all(not presence_at(m, j, t)
                              for t in (t for (u, t) in m.relations[i] if u == s))
                assert lhs == rhs
                assert holds_at(m, s, Not(dual)) == (not holds_at(m, s, dual))

    def test_serial_relation_links_certain_to_possible(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(60):
            m = random_local_kd45_model(rng)
            for i in sorted(m.agents):
                if not check_properties(m.relations[i], m.states).serial:
                    continue
                for j in sorted(m.agents):
                    for s in m.states:
                        if holds_at(m, s, CertainAgent(i, j)):
                            assert holds_at(m, s, PossibleAgent(i, j))
                            checked += 1
        assert checked > 0

    def test_truth_axiom_on_s5_models(self):
        # Universal relations per agent give an S5 frame; B[i]f -> f must be valid.
        rng = random.Random(9)
        for _ in range(20):
            base = random_local_kd45_model(rng)
            m = KripkeModel.build(
                states=base.states, agents=base.agents, props=base.props,
                relations={a: [(s, t) for s in base.states for t in base.states]
                           for a in base.agents},
                valuation=base.valuation, locals=base.locals)
            for _ in range(5):
                f = random_formula(rng, m.agents, m.props, depth=3)
                i = rng.choice(sorted(m.agents))
                assert holds_globally(m, Implies(Believes(i, f), f))

    @given(st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_unmemoized_oracle(self, seed):
        rng = random.Random(seed)
        m = random_local_kd45_model(rng)
        f = random_formula(rng, m.agents, m.props, depth=4, extra_about=["zz"])
        for s in m.states:
            assert holds_at(m, s, f) == oracles.eval_at(m, s, f)


class TestLargerModels:
    @given(st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_oracle_on_30_to_50_states(self, seed):
        rng = random.Random(seed)
        m = random_sparse_model(rng, rng.randint(30, 50), max_degree=3)
        f = random_formula(rng, m.agents, m.props, depth=3, extra_about=["zz"])
        truth = {s: oracles.eval_at(m, s, f) for s in m.states}
        for s in m.states:
            assert holds_at(m, s, f) == truth[s]
        for a in m.agents:
            assert holds_for_agent(m, a, f) == oracles.eval_for_agent(m, a, f)
        assert holds_globally(m, f) == all(truth.values())


def _best_time(fn, k=5):
    best = float("inf")
    for _ in range(k):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestComplexity:
    def test_agency_costs_a_constant_factor_of_belief(self):
        # C and P are a box and a diamond over a presence atom, so at a
        # fixed formula size they must cost about what belief costs.  Each
        # formula is asked as the tautology `f | ~f`, which holds at every
        # state, so no evaluator can stop early.  A ratio of best-of-k
        # times stays stable where wall-clock does not.
        m = random_sparse_model(random.Random(2000), 2000)
        belief, agency = (parse(f"({f}) | ~({f})") for f in ("B[a] B[b] p", "P[a,b] & C[b,c]"))
        assert holds_globally(m, belief) and holds_globally(m, agency)
        ratio = (_best_time(lambda: holds_globally(m, agency))
                 / _best_time(lambda: holds_globally(m, belief)))
        assert ratio <= 5, f"C/P evaluation took {ratio:.1f}x belief-only evaluation"
