import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epk import sat
from epk.formulas import (MAX_PAREN_DEPTH, And, Believes, CertainAgent, Formula,
                          Implies, Not, Or, ParseError, PossibleAgent, Prop, parse,
                          unparse)
from helpers import figure2, random_ast


class TestParse:
    def test_negated_possible_agent(self):
        assert parse("~P[m,g]") == Not(PossibleAgent("m", "g"))

    def test_nested_belief(self):
        assert parse("B[m] B[f] C[f,g]") == Believes("m", Believes("f", CertainAgent("f", "g")))

    def test_propositional(self):
        assert parse("p & ~p") == And(Prop("p"), Not(Prop("p")))

    def test_whitespace_insensitive(self):
        assert parse("  B[ m ]   ( p|q )") == parse("B[m](p|q)")

    def test_implies_right_associative(self):
        assert parse("p -> q -> r") == Implies(Prop("p"), Implies(Prop("q"), Prop("r")))

    def test_and_and_or_group_to_the_left(self):
        p, q, r = map(Prop, "pqr")
        assert parse("p & q & r") == And(And(p, q), r)
        assert parse("p | q | r") == Or(Or(p, q), r)

    def test_and_binds_tighter_than_or(self):
        assert parse("a & b | c") == Or(And(Prop("a"), Prop("b")), Prop("c"))

    def test_three_levels_and_both_groupings_in_one_chain(self):
        p, q, r, s, u = map(Prop, "pqrsu")
        assert parse("p -> q | r & s -> u") == Implies(p, Implies(Or(q, And(r, s)), u))

    def test_unary_binds_tightest(self):
        assert parse("~B[i] p & q") == And(Not(Believes("i", Prop("p"))), Prop("q"))

    def test_keyword_letters_are_plain_idents_without_bracket(self):
        assert parse("B & C") == And(Prop("B"), Prop("C"))

    def test_long_prefix_chains_parse(self):
        f = parse("~B[m] " * 3000 + "p")
        for _ in range(3000):
            assert isinstance(f, Not) and isinstance(f.sub, Believes)
            f = f.sub.sub
        assert f == Prop("p")

    def test_long_implication_chain_parses(self):
        f = parse(" -> ".join(["p"] * 3000))
        for _ in range(2999):
            assert f.left == Prop("p")
            f = f.right
        assert f == Prop("p")

    def test_parenthesis_depth_is_capped(self):
        assert parse("(" * MAX_PAREN_DEPTH + "p" + ")" * MAX_PAREN_DEPTH) == Prop("p")
        deeper = MAX_PAREN_DEPTH + 1
        with pytest.raises(ParseError, match="nested") as e:
            parse("(" * deeper + "p" + ")" * deeper)
        assert e.value.pos == MAX_PAREN_DEPTH

    def test_lexical_error_has_position(self):
        with pytest.raises(ParseError) as e:
            parse("p & $q")
        assert e.value.pos == 4

    def test_syntax_error_reports_expected(self):
        with pytest.raises(ParseError, match="expected"):
            parse("B[m p")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("p q")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse("")

    @pytest.mark.parametrize("text, message, pos", [
        ("B[a p", "expected ']', found 'p'", 4),
        ("P[a,]", "expected a name, found ']'", 4),
        ("B[1] p", "unexpected character '1'", 2),
        ("(p", "expected ')', found 'end of input'", 2),
        ("p q", "unexpected trailing 'q'", 2),
        ("->p", "expected a name, found '->'", 0),
        ("\u00e9", "unexpected character '\u00e9'", 0),
        ("C[a b]", "expected ',', found 'b'", 4),
        ("p q $", "unexpected character '$'", 4),
        ("\tp &\t", "expected a name, found 'end of input'", 5),
        ("B[(] p", "expected a name, found '('", 2),
        ("B[] p", "expected a name, found ']'", 2),
        ("B[,] p", "expected a name, found ','", 2),
    ])
    def test_error_message_and_position(self, text, message, pos):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == f"{message} (at position {pos})"
        assert e.value.pos == pos

    @given(st.one_of(
        st.text(alphabet="~&|->()[], \tBCPpqa_1$\u00e9"),
        st.lists(st.sampled_from(["~", "&", "|", "->", "(", ")", "B[a]", "C[a,b]", "P[b,a]",
                                  "p", "q", " ", "[", "]", ",", "1", "$"])).map("".join)))
    @settings(max_examples=300, deadline=None)
    def test_any_text_parses_or_fails_within_it(self, text):
        try:
            f = parse(text)
        except ParseError as e:
            assert 0 <= e.pos <= len(text)
        else:
            assert parse(unparse(f)) == f


class TestUnparse:
    def test_negated_possible_agent(self):
        assert unparse(Not(PossibleAgent("m", "g"))) == "~P[m,g]"

    def test_right_associative_implication_unparenthesized(self):
        f = Implies(Prop("p"), Implies(Prop("q"), Prop("r")))
        assert unparse(f) == "p -> q -> r"

    def test_precedence_forces_parens(self):
        f = And(Or(Prop("p"), Prop("q")), Prop("r"))
        assert unparse(f) == "(p | q) & r"
        assert parse(unparse(f)) == f

    def test_left_nested_implication_parenthesized(self):
        f = Implies(Implies(Prop("p"), Prop("q")), Prop("r"))
        assert unparse(f) == "(p -> q) -> r"
        assert parse(unparse(f)) == f

    def test_roundtrip_seeded_corpus(self):
        rng = random.Random(2024)
        for _ in range(300):
            f = random_ast(rng, depth=6)
            assert parse(unparse(f)) == f

    @given(st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, seed):
        f = random_ast(random.Random(seed), depth=6)
        assert parse(unparse(f)) == f

    # Deep formulas are compared as text here; TestDeepFormulas compares them
    # as values.
    @pytest.mark.parametrize("text", [
        "~" * 5000 + "p",
        "B[a] " * 5000 + "p",
        " & ".join(["p"] * 5000),   # nested to the left
        " | ".join(["p"] * 5000),   # nested to the left
        " -> ".join(["p"] * 5000),  # nested to the right
        "p & p | p -> " * 1667 + "p",  # all three levels, nested to the right
    ], ids=["negation", "belief", "conjunction", "disjunction", "implication", "mixed"])
    def test_deep_formulas_print(self, text):
        assert unparse(parse(text)) == text


DEEP = {
    "negation": "~" * 5000 + "p",
    "belief": "B[a] " * 5000 + "p",
    "conjunction": " & ".join(["p"] * 5000),
    "disjunction": " | ".join(["p"] * 5000),
    "implication": " -> ".join(["p"] * 5000),
    "mixed": "p & p | p -> " * 1667 + "p",
}


class TestDeepFormulas:
    @pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
    def test_compare_hash_and_repr(self, text):
        f, g = parse(text), parse(text)
        assert f is not g and f == g and not f != g
        assert hash(f) == hash(g)
        assert f != parse("~" + text) and f != parse(text.replace("p", "q", 1))
        assert {f: 1}[g] == 1
        r = repr(f)
        assert r.startswith(type(f).__name__ + "(") and "Prop(name='p')" in r
        nodes = sum(text.count(sym) for sym in ("~", "B[", "&", "|", "->", "p"))
        assert r.count("(") == r.count(")") == nodes

    def test_repr_is_that_of_the_fields(self):
        assert repr(parse("B[a] (p & C[a,b]) -> ~q")) == (
            "Implies(left=Believes(agent='a', sub=And(left=Prop(name='p'), "
            "right=CertainAgent(agent='a', about='b'))), right=Not(sub=Prop(name='q')))")

    def test_equality_is_structural(self):
        assert parse("p & q") != parse("p | q")
        assert parse("C[a,b]") != parse("P[a,b]")
        assert parse("B[a] p") != parse("B[b] p")
        assert Prop("p") != "p"

    @pytest.mark.parametrize("positional, keywords", [
        (Prop("p"), Prop(name="p")),
        (Not(Prop("p")), Not(sub=Prop("p"))),
        (And(Prop("p"), Prop("q")), And(left=Prop("p"), right=Prop("q"))),
        (Or(Prop("p"), Prop("q")), Or(right=Prop("q"), left=Prop("p"))),
        (Implies(Prop("p"), Prop("q")), Implies(Prop("p"), right=Prop("q"))),
        (Believes("a", Prop("p")), Believes(agent="a", sub=Prop("p"))),
        (CertainAgent("a", "b"), CertainAgent(agent="a", about="b")),
        (PossibleAgent("a", "b"), PossibleAgent(about="b", agent="a")),
    ], ids=lambda f: type(f).__name__)
    def test_keywords_build_what_positions_build(self, positional, keywords):
        assert keywords == positional and hash(keywords) == hash(positional)
        assert repr(keywords) == repr(positional)

    def test_fields_cannot_be_changed(self):
        f = parse("B[a] (p & C[a,b])")
        for node, name in ((f, "agent"), (f, "sub"), (f.sub, "left"), (f.sub.left, "name"),
                           (f.sub.right, "about"), (f, "extra")):
            with pytest.raises(AttributeError):
                setattr(node, name, Prop("q"))
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert f == parse("B[a] (p & C[a,b])")

    def test_match_destructures_by_position(self):
        def shape(f):
            match f:
                case Prop(name):
                    return name
                case Not(sub):
                    return f"~{shape(sub)}"
                case And(left, right) | Or(left, right) | Implies(left, right):
                    return f"{type(f).__name__}({shape(left)}, {shape(right)})"
                case Believes(agent, sub):
                    return f"B{agent}.{shape(sub)}"
                case CertainAgent(agent, about):
                    return f"C{agent}{about}"
                case PossibleAgent(agent, about):
                    return f"P{agent}{about}"
        assert shape(parse("B[a] ~(p -> q) | C[a,b] & P[b,a]")) == (
            "Or(Ba.~Implies(p, q), And(Cab, Pba))")

    @pytest.mark.parametrize("clone", [
        lambda f: pickle.loads(pickle.dumps(f)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_clones_are_equal_and_hash_alike(self, clone):
        f = parse("B[a] (p & ~C[a,b]) -> P[b,a] | q")
        g = clone(f)
        assert g == f and hash(g) == hash(f)

    @pytest.mark.parametrize("clone", [
        *(lambda f, p=p: pickle.loads(pickle.dumps(f, p))
          for p in range(pickle.HIGHEST_PROTOCOL + 1)),
        copy.copy, copy.deepcopy,
    ], ids=[*(f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)), "copy", "deepcopy"])
    def test_clones_at_any_depth_keep_shared_subterms(self, clone):
        f = Prop("p")
        for k in range(20000):  # every class, 20,000 deep
            f = (Not(f), Believes("a", f), And(f, CertainAgent("a", "b")),
                 Or(PossibleAgent("b", "a"), f), Implies(f, Prop("q")))[k % 5]
        shared = And(f, f)
        g = clone(shared)
        assert g is not shared and g == shared and hash(g) == hash(shared)
        assert g.left is g.right and type(g.left) is type(f)


class TestFormulaType:
    def test_every_node_is_a_formula(self):
        for text in ("p", "~p", "p & q", "p | q", "p -> q", "B[a] p", "C[a,b]", "P[a,b]"):
            assert isinstance(parse(text), Formula)
        assert not isinstance("p", Formula)

    @pytest.mark.parametrize("call", [lambda x: sat(figure2(), x), unparse],
                             ids=["sat", "unparse"])
    def test_a_non_formula_is_refused(self, call):
        with pytest.raises(TypeError) as e:
            call("p")
        assert str(e.value) == "not a formula: 'p'"
