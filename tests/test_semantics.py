import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epk import (KripkeModel, ModelError, StateId, holds_at, holds_for_agent,
                 holds_globally, parse, presence_at, sat, semantics)
from epk.formulas import And, Believes, CertainAgent, Implies, Not, Or, PossibleAgent, Prop
from epk.frames import check_properties
from epk.semantics import _least_failure
from helpers import (best_time, figure2, random_formula, random_formula_dag,
                     random_local_kd45_model, random_sparse_model)
from oracles import labelling


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

    def test_subformula_shared_under_a_box_and_a_connective(self):
        # g is asked at the point itself (under ~) and at the point's
        # f-successors (under B[f]): its need is the union of the two.
        m = figure2()
        g = parse("B[m] p")
        f = Or(Believes("f", g), Not(g))
        whole = sat(m, f)
        assert whole == 0b111
        for w in range(8):
            assert sat(m, f, w) == whole & w
        # g holds at 3 only, the f-successor of every state.
        assert holds_at(m, S("1"), And(Believes("f", g), Not(g))) is True
        assert holds_at(m, S("3"), And(Believes("f", g), Not(g))) is False

    @pytest.mark.parametrize("with_g", [lambda g, h: And(g, h), lambda g, h: And(h, g)],
                             ids=["left", "right"])
    def test_shared_operand_of_two_connectives_is_asked_at_both_needs(self, with_g):
        # g is the same operand, left or right, of an And asked at the point
        # and of an And asked at the point's b-successors: its need is the
        # union of the two.  Only a pointed query shows it; a global one
        # needs every state.
        g = Believes("a", Prop("p"))
        f = Or(with_g(g, Prop("q")), Believes("b", with_g(g, Prop("r"))))
        for seed in range(200):
            m = random_sparse_model(random.Random(seed), 30)
            truth = labelling(m, f)
            for s in m.states:
                assert holds_at(m, s, f) == (s.name in truth), (seed, s)

    def test_pointed_sat_agrees_with_oracle_on_formula_dags(self):
        # Operands shared under different parents, on either side of a
        # connective or under a B, are asked at the union of their needs.
        for seed in range(300):
            rng = random.Random(seed)
            m = random_sparse_model(rng, 30)
            f = random_formula_dag(rng, m.agents, m.props, 8)
            truth = labelling(m, f)
            for k, s in enumerate(m.index.order):
                assert bool(sat(m, f, 1 << k)) == (s.name in truth), (seed, s)

    def test_leftmost_unknown_symbol_is_reported(self):
        with pytest.raises(ModelError, match="zzz"):
            sat(figure2(), parse("zzz & B[yy] p"))
        with pytest.raises(ModelError, match="yy"):
            sat(figure2(), parse("B[yy] zzz"))

    def test_unknown_symbol_no_needed_state_reaches_is_reported(self):
        # State 1 has no g-successor, so B[g] asks its operand nowhere.
        m = figure2()
        with pytest.raises(ModelError, match="zzz"):
            holds_at(m, S("1"), parse("B[g] zzz"))
        with pytest.raises(ModelError, match="zzz"):
            sat(m, parse("p | zzz"), 0)
        with pytest.raises(ModelError, match="yy"):
            holds_for_agent(m, "f", parse("B[g] B[m] C[yy,m]"))

    @pytest.mark.parametrize("within", [-1, 0b1000, 1 << 70, 0b1111, 1.0, "1", True, False])
    def test_within_outside_the_model_errors(self, within):
        with pytest.raises(ModelError, match="not a mask of the model's 3 states"):
            sat(figure2(), parse("p"), within)

    def test_within_selects_states(self):
        m = figure2()
        assert sat(m, parse("p"), 0) == 0
        assert sat(m, parse("p"), 0b100) == 0b100
        assert sat(m, parse("p"), 0b110) == 0b100
        assert sat(m, parse("p"), None) == sat(m, parse("p"), m.index.full) == 0b101

    @given(st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_within_is_the_whole_mask_restricted(self, seed):
        rng = random.Random(seed)
        m = random_sparse_model(rng, rng.randint(30, 50), max_degree=3)
        idx = m.index
        g = random_formula(rng, m.agents, m.props, depth=2, extra_about=["zz"])
        h = random_formula(rng, m.agents, m.props, depth=2, extra_about=["zz"])
        # g sits under two parents, one of them a box.
        f = rng.choice([And, Or, Implies])(Believes(rng.choice(sorted(m.agents)), g),
                                           rng.choice([g, Not(g), Or(g, h)]))
        one = 1 << rng.randrange(len(idx.order))
        some = rng.getrandbits(len(idx.order))
        for formula in (f, g):
            whole = sat(m, formula)
            for w in [0, one, some, idx.full, *idx.locals.values()]:
                assert sat(m, formula, w) == whole & w


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

    def test_unknown_symbol_errors_where_the_least_state_decides(self):
        # p holds at state 1, so the conjunction is false there, and the
        # check is decided before any state asks about zzz.
        with pytest.raises(ModelError, match="unknown proposition: zzz"):
            holds_globally(figure2(), parse("~p & zzz"))


class TestLeastFailure:
    @given(st.integers(0, 10**9), st.sampled_from(["none", "one", "some", "full", "locals"]))
    @settings(max_examples=50, deadline=None)
    def test_is_the_least_state_of_within_where_f_is_false(self, seed, scope):
        rng = random.Random(seed)
        m = random_sparse_model(rng, rng.randint(30, 50), max_degree=3)
        f = random_formula(rng, m.agents, m.props, depth=3, extra_about=["zz"])
        idx = m.index
        n = len(idx.order)
        within = {"none": 0, "one": 1 << rng.randrange(n), "some": rng.getrandbits(n),
                  "full": idx.full, "locals": idx.locals[rng.choice(sorted(m.agents))]}[scope]
        missed = within & ~sat(m, f)
        truth = labelling(m, f)
        least = next((1 << k for k, s in enumerate(idx.order)
                      if within >> k & 1 and s.name not in truth), 0)
        assert _least_failure(m, f, within) == missed & -missed == least


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
    def test_agrees_with_the_reference_labelling(self, seed):
        rng = random.Random(seed)
        m = random_local_kd45_model(rng)
        f = random_formula(rng, m.agents, m.props, depth=4, extra_about=["zz"])
        truth = labelling(m, f)
        for s in m.states:
            assert holds_at(m, s, f) == (s.name in truth)


class TestLargerModels:
    @given(st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_oracle_on_30_to_50_states(self, seed):
        rng = random.Random(seed)
        m = random_sparse_model(rng, rng.randint(30, 50), max_degree=3)
        f = random_formula(rng, m.agents, m.props, depth=3, extra_about=["zz"])
        truth = labelling(m, f)
        for s in m.states:
            assert holds_at(m, s, f) == (s.name in truth)
        for a in m.agents:
            assert holds_for_agent(m, a, f) == ({s.name for s in m.locals[a]} <= truth)
        assert holds_globally(m, f) == (len(truth) == len(m.states))

    @given(st.integers(0, 10**9))
    @settings(max_examples=15, deadline=None)
    def test_pointed_queries_agree_with_oracle_on_300_to_500_states(self, seed):
        # Degree at most 3 and modal depth at most 3 keep each point's need
        # to a few dozen states, so the bit-by-bit kernels do the work.
        rng = random.Random(seed)
        m = random_sparse_model(rng, rng.randint(300, 500), max_degree=3)
        for _ in range(3):
            f = random_formula(rng, m.agents, m.props, depth=3, extra_about=["zz"])
            truth = labelling(m, f)
            for s in m.states:
                assert holds_at(m, s, f) == (s.name in truth)
            for a in sorted(m.agents):
                assert holds_for_agent(m, a, f) == ({s.name for s in m.locals[a]} <= truth)


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
        ratio = (best_time(lambda: holds_globally(m, agency), k=5)
                 / best_time(lambda: holds_globally(m, belief), k=5))
        assert ratio <= 5, f"C/P evaluation took {ratio:.1f}x belief-only evaluation"

    def test_pointed_queries_cost_the_states_they_need(self):
        # Three nested boxes ask a point about the states within three
        # edges of it, a few dozen here, where a global query labels all
        # 10,000.  The tautology keeps any evaluator from stopping early.
        m = random_sparse_model(random.Random(1), 10000)
        f = parse("B[a] B[b] B[c] (p | ~p)")
        point = m.index.order[0]
        assert holds_at(m, point, f) and holds_for_agent(m, "a", f) and holds_globally(m, f)
        whole = best_time(lambda: holds_globally(m, f), k=3)
        for scope, query in (("holds_at", lambda: holds_at(m, point, f)),
                             ("holds_for_agent", lambda: holds_for_agent(m, "a", f))):
            ratio = best_time(query, k=3) / whole
            assert ratio <= 0.1, f"{scope} took {ratio:.2f}x holds_globally"

    def test_a_universal_check_asks_its_least_state_alone_first(self, monkeypatch):
        # `B[a] p` is false at the least state, so one pointed query
        # decides the check.  A tautology holds there, so the check goes
        # on to label every state.
        m = random_sparse_model(random.Random(3000), 3000)
        asked = []
        unwrapped = semantics.sat

        def counted(model, f, within=None):
            asked.append(within)
            return unwrapped(model, f, within)

        monkeypatch.setattr(semantics, "sat", counted)
        assert holds_globally(m, parse("B[a] p")) is False
        assert asked == [1]
        asked.clear()
        assert holds_globally(m, parse("p | ~p")) is True
        assert asked == [1, m.index.full]
