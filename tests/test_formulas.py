import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epk.formulas import (MAX_PAREN_DEPTH, And, Believes, CertainAgent,
                          Implies, Not, Or, ParseError, PossibleAgent, Prop,
                          formula_symbols, parse, unparse)
from helpers import random_ast


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

    def test_and_binds_tighter_than_or(self):
        assert parse("a & b | c") == Or(And(Prop("a"), Prop("b")), Prop("c"))

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


class TestFormulaSymbols:
    def test_nested_belief(self):
        agents, props = formula_symbols(parse("B[m] B[f] C[f,g]"))
        assert agents == {"m", "f", "g"}
        assert props == frozenset()

    def test_propositional(self):
        agents, props = formula_symbols(parse("p & ~p"))
        assert agents == frozenset()
        assert props == {"p"}

    def test_mixed(self):
        agents, props = formula_symbols(parse("~B[m] p"))
        assert agents == {"m"}
        assert props == {"p"}
