"""Chains of the four updates, drawn by a hypothesis state machine.

Each step applies one update, with a random liar, target or newcomer, to
the model the chain has reached, so lies stack their lineage tags several
deep ("1@act@shift@act").  After every step the model must equal the
step-by-step oracle of `tests/oracles`, obey the paper's laws for that
update, and survive a round trip through its canonical document; now and
then the step goes through `cli.main` on a file instead."""

import io
import json
import os
import random
import shutil
import tempfile
import warnings

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

import oracles
from epk import (cli, doc_to_model, dumps_model, holds_for_agent, lie_offline, lie_online,
                 load_model, parse, save_model, update_offline, update_online)
from helpers import random_formula, random_local_kd45_model

MAX_STATES = 24  # a lie doubles the states at most; no lie starts above this
MAX_AGENTS = 4  # no newcomer joins above this


def holds(model, agent, text):
    return holds_for_agent(model, agent, parse(text))


class UpdateChains(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp()
        self.joined = 0

    def teardown(self):
        shutil.rmtree(self.dir)

    @initialize(seed=st.integers(0, 2**32))
    def start(self, seed):
        self.rng = random.Random(seed)
        self.model = random_local_kd45_model(self.rng, min_agents=2, max_states=11)

    def newcomer(self):
        self.joined += 1
        return f"n{self.joined}"

    def formulas(self):
        return [random_formula(self.rng, self.model.agents, self.model.props, depth=2)
                for _ in range(2)]

    def step(self, via_cli, update, argv, *args):
        """The result of `update(model, *args)`, which `argv` also spells
        for the command line: through `cli.main` on a file when `via_cli`."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # lie_offline warns of a lost certainty
            result = update(self.model, *args).model
            if via_cli:
                path = os.path.join(self.dir, "m.json")
                save_model(self.model, path)
                out, err = io.StringIO(), io.StringIO()
                code = cli.main([path, "update", *argv, "--in-place"], out=out, err=err)
                assert (code, err.getvalue()) == (0, ""), err.getvalue()
                assert load_model(path) == result
        return result

    def states(self, data):
        names = sorted(self.model.states)
        return set(data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=2)))

    @precondition(lambda self: len(self.model.agents) < MAX_AGENTS)
    @rule(data=st.data(), via_cli=st.sampled_from([False] * 5 + [True]))
    def online(self, data, via_cli):
        before, j, locs = self.model, self.newcomer(), self.states(data)
        after = self.step(via_cli, update_online,
                          ["online", j, "--locals", *sorted(s.name for s in locs)], j, locs)
        assert after == oracles.oracle_update_online(before, j, locs)
        assert after.states == before.states
        for k in after.agents:
            assert holds(after, k, f"C[{k},{j}]")
        for f in self.formulas():
            for k in before.agents:
                assert holds_for_agent(after, k, f) == holds_for_agent(before, k, f)
        self.model = after

    @precondition(lambda self: len(self.model.agents) >= 2)
    @rule(data=st.data(), via_cli=st.sampled_from([False] * 5 + [True]))
    def offline(self, data, via_cli):
        before = self.model
        j = data.draw(st.sampled_from(sorted(before.agents)))
        after = self.step(via_cli, update_offline, ["offline", j], j)
        assert after == oracles.oracle_update_offline(before, j)
        survivors = sorted(before.agents - {j})
        for k in survivors:
            assert holds(after, k, f"~P[{k},{j}]")
        for f in self.formulas():
            if j not in oracles.agents_of(f):
                for k in survivors:
                    assert holds_for_agent(after, k, f) == holds_for_agent(before, k, f)
        self.model = after

    @precondition(lambda self: len(self.model.agents) >= 2
                  and len(self.model.states) <= MAX_STATES)
    @rule(data=st.data(), via_cli=st.sampled_from([False] * 5 + [True]))
    def lie_offline(self, data, via_cli):
        before = self.model
        i, j = data.draw(st.permutations(sorted(before.agents)))[:2]
        after = self.step(via_cli, lie_offline, ["lie-offline", "--liar", i, "--target", j], i, j)
        assert after == oracles.oracle_lie_offline(before, i, j)
        for k in sorted(before.agents - {i, j}):
            assert holds(after, k, f"~P[{k},{j}]")
            assert holds(after, i, f"B[{i}] ~P[{k},{j}]")
        for k in (i, j):
            if holds(before, k, f"C[{k},{j}]"):
                assert holds(after, k, f"C[{k},{j}]")
        assert len(after.states) <= 2 * len(before.states)
        self.model = after

    @precondition(lambda self: len(self.model.agents) < MAX_AGENTS
                  and len(self.model.states) <= MAX_STATES)
    @rule(data=st.data(), via_cli=st.sampled_from([False] * 5 + [True]))
    def lie_online(self, data, via_cli):
        before, j, locs = self.model, self.newcomer(), self.states(data)
        i = data.draw(st.sampled_from(sorted(before.agents)))
        after = self.step(via_cli, lie_online,
                          ["lie-online", "--liar", i, "--new", j, "--locals",
                           *sorted(s.name for s in locs)], i, j, locs)
        assert after == oracles.oracle_lie_online(before, i, j, locs)
        for k in sorted(after.agents - {i}):
            assert holds(after, k, f"C[{k},{j}]")
            assert holds(after, i, f"B[{i}] C[{k},{j}]")
        assert holds(after, i, f"~P[{i},{j}]")
        for f in self.formulas():
            for k in before.agents - {i}:
                assert holds_for_agent(after, k, f) == holds_for_agent(before, k, f)
        assert len(after.states) <= 2 * len(before.states)
        self.model = after

    @invariant()
    def the_document_round_trips(self):
        text = dumps_model(self.model)
        assert text == json.dumps(oracles.oracle_doc(self.model), indent=2, sort_keys=True) + "\n"
        again = doc_to_model(json.loads(text))
        assert again == self.model and dumps_model(again) == text


UpdateChains.TestCase.settings = settings(
    max_examples=30, stateful_step_count=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
TestUpdateChains = UpdateChains.TestCase
