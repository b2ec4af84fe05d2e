import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epk import (KripkeModel, ModelError, StateId, holds_at, lie_online, parse, presence_at,
                 prune_unreachable, reachable_from, replicate_with_lineage,
                 subjective_relation, update_online)
from epk.formulas import Believes, CertainAgent, PossibleAgent, Prop
from epk.model import positions
from helpers import figure2, figure2_minus_g, random_formula, random_local_kd45_model


def S(name):
    return StateId.parse(name)


def successors(m, agent, state):
    # The agent's successors of one state, read from the index rows.
    m.require_agent(agent)
    return m.index.states_of(m.index.image(m.index.mask((state,)), (agent,)))


def one_state(state):
    return KripkeModel.build(states=[state], agents=[], props=[], relations={}, valuation={},
                             locals={})


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

    def test_hash_is_that_of_base_and_lineage(self):
        s = S("3@act@shift")
        assert hash(s) == hash(("3", ("act", "shift")))

    @pytest.mark.parametrize("clone", [
        lambda s: pickle.loads(pickle.dumps(s)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_clones_find_themselves_in_sets_and_dicts(self, clone):
        s = S("3@act@shift")
        other = clone(s)
        assert other == s and other in {s} and {s: 1}[other] == 1
        assert s in {other} and {other: 1}[s] == 1

    def test_unpickling_recomputes_the_hash(self):
        # String hashes are salted per process, so a hash made in one
        # process is wrong in the next: the clone must hash its own pair.
        s = S("3@act")
        for other in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
            assert hash(other) == hash(("3", ("act",)))

    def test_states_are_slotted(self):
        assert not hasattr(S("3@act"), "__dict__")

    def test_states_sort_by_base_then_lineage(self):
        names = ["10", "1@shift", "1@act@shift", "1", "1@act"]
        for seed in range(5):
            random.Random(seed).shuffle(names)
            states = sorted(map(S, names))
            assert [s.name for s in states] == ["1", "1@act", "1@act@shift", "1@shift", "10"]
            assert states == sorted(states, key=lambda s: (s.base, s.lineage))
        assert S("1@act") < S("10") and not S("10") < S("1@act")

    def test_repr_and_str(self):
        s = S("3@act@shift")
        assert (repr(s), str(s)) == ("StateId('3@act@shift')", "3@act@shift")
        assert repr(S("1")) == "StateId('1')"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trips_with_every_protocol(self, protocol):
        s = S("3@act@shift")
        other = pickle.loads(pickle.dumps(s, protocol))
        assert type(other) is StateId and other == s and hash(other) == hash(s)
        assert (other.base, other.lineage, repr(other)) == ("3", ("act", "shift"), repr(s))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_checks_the_state_again(self, protocol):
        data = pickle.dumps(S("3@act"), protocol)
        assert data.count(b"act") == 1
        with pytest.raises(ModelError, match="bad lineage tag: 'acX'"):
            pickle.loads(data.replace(b"act", b"acX"))

    def test_fields_cannot_be_assigned(self):
        s = S("3@act")
        for name, value in (("base", "4"), ("lineage", ())):
            with pytest.raises(AttributeError):
                setattr(s, name, value)
        assert s.name == "3@act"

    def test_any_sequence_of_tags_makes_a_lineage(self):
        s = StateId("1", ["act", "shift"])
        assert s == S("1@act@shift") and {s: 1}[S("1@act@shift")] == 1
        assert type(s.lineage) is tuple and s.name == "1@act@shift"

    def test_no_other_attribute_can_be_set(self):
        with pytest.raises(AttributeError):
            S("3@act").other = 1

    @pytest.mark.parametrize("make, message", [
        (lambda: StateId(""), "bad state base name: ''"),
        (lambda: StateId("1@act"), "bad state base name: '1@act'"),
        (lambda: StateId("1", ("bogus",)), "bad lineage tag: 'bogus'"),
        (lambda: StateId("1", ("act", "")), "bad lineage tag: ''"),
        (lambda: S("1@act@Shift"), "bad lineage tag: 'Shift'"),
        (lambda: S("@act"), "bad state base name: ''"),
        (lambda: replicate_with_lineage(figure2(), "bogus"), "bad lineage tag: 'bogus'"),
        (lambda: one_state(1), "bad state name: 1"),
        (lambda: one_state(None), "bad state name: None"),
        (lambda: one_state(("1", ())), "bad state name: ('1', ())"),
        (lambda: one_state(b"1"), "bad state name: b'1'"),
    ])
    def test_bad_names_keep_their_messages(self, make, message):
        with pytest.raises(ModelError) as e:
            make()
        assert str(e.value) == message


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

    @given(st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_positions_are_the_bits_set(self, seed):
        # Masks with few bits set and with many (read from the binary
        # digits) take different paths; both must list the same bits.
        rng = random.Random(seed)
        width = rng.randint(1, 3000)
        mask = 0
        for k in rng.sample(range(width), rng.randint(0, min(width, 400))):
            mask |= 1 << k
        assert list(positions(mask)) == [k for k in range(width) if mask >> k & 1]
        # Every mask up to 12 bits wide, where the rule's floor decides.
        for mask in range(1 << 12):
            assert list(positions(mask)) == [k for k in range(12) if mask >> k & 1]


class TestModelValue:
    META = {"name": "figure 2"}

    def test_hashing_is_off(self):
        with pytest.raises(TypeError, match="KripkeModel"):
            hash(figure2())
        assert KripkeModel.__hash__ is None

    def test_models_are_immutable(self):
        m = figure2()
        with pytest.raises(AttributeError):
            m.states = frozenset()

    def test_no_field_can_be_deleted(self):
        m = figure2()
        with pytest.raises(AttributeError) as e:
            del m.meta
        assert str(e.value) == "KripkeModel is immutable: cannot delete 'meta'"

    def test_a_model_equals_no_other_value(self):
        assert (figure2() == 1) is False and figure2() != figure2().index

    @pytest.mark.parametrize("view", ["valuation", "locals", "meta"])
    def test_the_mappings_cannot_be_changed(self, view):
        m = KripkeModel(figure2().index, self.META)
        with pytest.raises(TypeError):
            getattr(m, view)["p"] = frozenset()
        assert m.valuation["p"] == figure2().valuation["p"] and dict(m.meta) == self.META

    @pytest.mark.parametrize("how", [*range(pickle.HIGHEST_PROTOCOL + 1), "copy", "deepcopy"])
    def test_pickles_and_copies_whatever_has_been_read(self, how):
        # A pickle protocol, or the name of a function of `copy`.
        m = KripkeModel(figure2().index, self.META)
        for view in ("states", "agents", "props", "relations", "valuation", "locals", "meta"):
            getattr(m, view)
        other = getattr(copy, how)(m) if how in ("copy", "deepcopy") else pickle.loads(
            pickle.dumps(m, how))
        assert type(other) is KripkeModel and other == m and dict(other.meta) == self.META
        assert other.relations == m.relations and other.valuation == m.valuation

    def test_equality_compares_edges_not_meta(self):
        m = figure2()
        same = KripkeModel.build(states=m.states, agents=m.agents, props=m.props,
                                 relations={a: set(m.relations[a]) for a in m.agents},
                                 valuation=m.valuation, locals=m.locals, meta={"name": "other"})
        assert same == m
        fewer = dict(m.relations, m=set(m.relations["m"]) - {(S("1"), S("2"))})
        assert KripkeModel.build(states=m.states, agents=m.agents, props=m.props,
                                 relations=fewer, valuation=m.valuation, locals=m.locals) != m


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

    # A string is a collection of its characters, which are names here ("12"
    # would be the states 1 and 2, or the edge (1, 2)), and a mapping is one
    # of its keys: each place refuses both, as it does anything that is not
    # a collection, a name that is not a string and a pair that is not two
    # names, each with a `ModelError` that names the field.
    @pytest.mark.parametrize("field, value, message", [
        ("states", "12", "states must be a list of strings"),
        ("agents", "a", "agents must be a list of strings"),
        ("props", "p", "props must be a list of strings"),
        ("locals", {"a": "12"}, "locals.a must be a list of strings"),
        ("valuation", {"p": "12"}, "valuation.p must be a list of strings"),
        ("relations", {"a": "12"},
         "relations.a must be an adjacency map or a list of [s, t] pairs"),
        ("relations", {"a": {"1": "12"}}, "relations.a.1 must be a list of state names"),
        ("relations", {"a": ["12"]}, "relations.a[0] must be a pair of state names [s, t]"),
        ("relations", {"a": [("1", "2", "1")]},
         "relations.a[0] must be a pair of state names [s, t]"),
        ("relations", {"a": iter([("1", "2"), ("1",)])},
         "relations.a[1] must be a pair of state names [s, t]"),
        ("states", 5, "states must be a list of strings"),
        ("agents", None, "agents must be a list of strings"),
        ("locals", {"a": 5}, "locals.a must be a list of strings"),
        ("relations", {"a": [5]}, "relations.a[0] must be a pair of state names [s, t]"),
        ("relations", {"a": {"1": 5}}, "relations.a.1 must be a list of state names"),
        ("relations", {"a": {"1": None}}, "relations.a.1 must be a list of state names"),
        ("relations", {"a": {"1": [["2"]]}}, "relations.a.1 must be a list of state names"),
        ("relations", ["a"], "relations must be a mapping"),
        ("valuation", ["p"], "valuation must be a mapping"),
        ("locals", ["a"], "locals must be a mapping"),
        ("states", {"1": 0, "2": 0}, "states must be a list of strings"),
        ("locals", {"a": {"1": 0}}, "locals.a must be a list of strings"),
        ("relations", {"a": {"1": {"2": []}}}, "relations.a.1 must be a list of state names"),
        ("agents", [5], "agents must be a list of strings"),
        ("props", [["p"]], "props must be a list of strings"),
        ("valuation", {"p": [None]}, "valuation.p must be a list of strings"),
        ("relations", {"a": [("1", ["2"])]},
         "relations.a[0] must be a pair of state names [s, t]"),
        ("relations", {"a": [{"1": "2", "2": "1"}]},
         "relations.a[0] must be a pair of state names [s, t]"),
        ("relations", {"a": {"1": [("2", ())]}}, "relations.a.1 must be a list of state names"),
        ("relations", {"a": {("1", ()): ["2"]}},
         "relations.a.('1', ()) must be a list of state names"),
        ("relations", {"a": [(("1", ()), "2")]},
         "relations.a[0] must be a pair of state names [s, t]"),
    ], ids=["states", "agents", "props", "locals", "valuation", "relation", "map-row",
            "pair-string", "pair-of-three", "pair-of-one",
            "states-int", "agents-none", "locals-int", "pair-int", "map-row-int",
            "map-row-none", "map-row-nested-list", "relations-list", "valuation-list",
            "locals-list", "states-map", "locals-map", "map-row-map",
            "agent-int", "prop-list", "valuation-none", "pair-with-a-list", "pair-map",
            "map-row-tuple-target", "map-tuple-source", "pair-with-a-tuple"])
    def test_a_string_or_a_bad_pair_is_refused(self, field, value, message):
        fields = dict(states=["1", "2"], agents=["a"], props=["p"], relations={"a": []},
                      valuation={"p": []}, locals={"a": ["1"]})
        with pytest.raises(ModelError) as caught:
            KripkeModel.build(**{**fields, field: value})
        assert str(caught.value) == message


class TestNames:
    NAMES = (st.text(alphabet="abBCPz_09é١²ſK -[]~", max_size=5)
             | st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True))

    # A bad agent name and a bad proposition name, each met at once, not
    # only after the search finds and shrinks one.
    @given(NAMES, NAMES)
    @example("a-b", "p")
    @example("a", "p q")
    @settings(max_examples=300, deadline=None)
    def test_every_name_a_model_admits_a_formula_can_spell(self, agent, prop):
        try:
            KripkeModel.build(states=["1"], agents=[agent], props=[prop], relations={agent: []},
                              valuation={prop: []}, locals={agent: ["1"]})
        except ModelError as e:
            assert str(e).startswith("bad ")
            return
        assert parse(f"B[{agent}] {prop}") == Believes(agent, Prop(prop))
        assert parse(f"C[{agent},{agent}]") == CertainAgent(agent, agent)
        assert parse(f"P[{agent},{agent}]") == PossibleAgent(agent, agent)
        assert parse(prop) == Prop(prop)


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


UNKNOWN = "unknown state: 9"
EMPTY = "new agent g needs a non-empty set of local states"
NAME = "'1' is a state name, not a StateId"


class TestRefusals:
    # Each refusal names the first fault in a fixed order: an unknown state
    # before an unknown agent or proposition, an unknown liar before a
    # present newcomer, a present newcomer before its local states.  A state's
    # name where a StateId is asked for is called a name, not an unknown state;
    # a (base, lineage) pair, which looks up as its state, by that state's name.
    @pytest.mark.parametrize("call, message", [
        (lambda: holds_at(figure2(), S("9"), parse("p")), UNKNOWN),
        (lambda: holds_at(figure2(), S("9"), parse("zz & B[x] p")), UNKNOWN),
        (lambda: reachable_from(figure2(), [S("9")], ["m"]), UNKNOWN),
        (lambda: reachable_from(figure2(), [S("1"), S("9")], ["x"]), UNKNOWN),
        (lambda: reachable_from(figure2(), [S("1")], ["x"]), "unknown agent: x"),
        (lambda: prune_unreachable(figure2(), [S("1"), S("9")]), UNKNOWN),
        (lambda: update_online(figure2_minus_g(), "g", [S("9")]), UNKNOWN),
        (lambda: lie_online(figure2_minus_g(), "m", "g", [S("1"), S("9")]), UNKNOWN),
        (lambda: update_online(figure2_minus_g(), "m", [S("1")]), "agent already present: m"),
        (lambda: update_online(figure2_minus_g(), "m", []), "agent already present: m"),
        (lambda: lie_online(figure2_minus_g(), "m", "f", [S("9")]), "agent already present: f"),
        (lambda: lie_online(figure2_minus_g(), "m", "m", [S("1")]), "agent already present: m"),
        (lambda: update_online(figure2_minus_g(), "g", []), EMPTY),
        (lambda: update_online(figure2_minus_g(), "g", iter(())), EMPTY),
        (lambda: lie_online(figure2_minus_g(), "m", "g", ()), EMPTY),
        (lambda: lie_online(figure2_minus_g(), "x", "f", [S("1")]), "unknown agent: x"),
        (lambda: lie_online(figure2_minus_g(), "x", "g", [S("9")]), "unknown agent: x"),
        (lambda: holds_at(figure2(), "1", parse("p")), NAME),
        (lambda: update_online(figure2_minus_g(), "g", ["1"]), NAME),
        (lambda: prune_unreachable(figure2(), ["1"]), NAME),
        (lambda: holds_at(figure2(), ("9", ()), parse("p")), UNKNOWN),
        (lambda: presence_at(figure2(), "m", ("9", ())), UNKNOWN),
        (lambda: reachable_from(figure2(), [("9", ())], ["m"]), UNKNOWN),
        (lambda: update_online(figure2_minus_g(), "g", [("9", ())]), UNKNOWN),
        (lambda: holds_at(figure2(), ("9", ("act",)), parse("p")), "unknown state: 9@act"),
        (lambda: holds_at(figure2(), ("1",), parse("p")), "unknown state: ('1',)"),
        (lambda: holds_at(figure2(), (("1",), ()), parse("p")), "unknown state: (('1',), ())"),
        (lambda: presence_at(figure2(), "m", S("9")), UNKNOWN),
    ], ids=["holds_at", "holds_at-before-symbols", "reachable_from",
            "reachable_from-state-before-agent", "reachable_from-agent", "prune_unreachable",
            "online-state", "lie_online-state", "online-present", "online-present-before-empty",
            "lie_online-present", "lie_online-liar-as-newcomer", "online-empty",
            "online-empty-iterator", "lie_online-empty", "lie_online-liar-before-present",
            "lie_online-liar-before-state", "holds_at-name", "online-name",
            "prune_unreachable-name", "holds_at-pair", "presence_at-pair",
            "reachable_from-pair", "online-pair", "holds_at-tagged-pair", "holds_at-one-tuple",
            "holds_at-pair-of-tuple", "presence_at"])
    def test_message(self, call, message):
        with pytest.raises(ModelError) as caught:
            call()
        assert str(caught.value) == message
