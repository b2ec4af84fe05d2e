"""Chains of the four updates, drawn by a hypothesis state machine.

Each step applies one update, with a random liar, target or newcomer, to
the model the chain has reached, so lies stack their lineage tags several
deep ("1@act@shift@act").  After every step the whole result (model,
discarded states and edge counts) must equal, in plain form, what
`bench/reference.py` makes of the same update and keep the laws of that
update, as `laws.check_result` checks, and the model must survive a round
trip through its canonical document; now and then the step goes through
`cli.main` on a file too."""

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
from epk import doc_to_model, dumps_model, load_model, save_model
from helpers import random_formula, random_local_kd45_model, run_cli
from laws import UPDATES, check_result

MAX_STATES = 24  # a lie doubles the states at most; no lie starts above this
MAX_AGENTS = 4  # no newcomer joins above this


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

    def step(self, via_cli, kind, argv, *args):
        """Apply the update `kind` by `args`, which `argv` also spells for
        the command line: through `cli.main` on a file too when `via_cli`.
        The result must pass `check_result` for `kind`."""
        before = self.model
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # lie_offline warns of a lost certainty
            result = UPDATES[kind](before, *args)
            if via_cli:
                path = os.path.join(self.dir, "m.json")
                save_model(before, path)
                code, _, err = run_cli(path, "update", *argv, "--in-place")
                assert (code, err) == (0, ""), err
                assert load_model(path) == result.model
        formulas = [random_formula(self.rng, before.agents, before.props, 2) for _ in range(2)]
        assert check_result(kind, before, args, result, formulas) is None
        self.model = result.model

    def states(self, data):
        names = sorted(self.model.states)
        return set(data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=2)))

    @precondition(lambda self: len(self.model.agents) < MAX_AGENTS)
    @rule(data=st.data(), via_cli=st.sampled_from([False] * 5 + [True]))
    def online(self, data, via_cli):
        j, locs = self.newcomer(), self.states(data)
        self.step(via_cli, "online", ["online", j, "--locals", *sorted(s.name for s in locs)],
                  j, locs)

    @precondition(lambda self: len(self.model.agents) >= 2)
    @rule(data=st.data(), via_cli=st.sampled_from([False] * 5 + [True]))
    def offline(self, data, via_cli):
        j = data.draw(st.sampled_from(sorted(self.model.agents)))
        self.step(via_cli, "offline", ["offline", j], j)

    @precondition(lambda self: len(self.model.agents) >= 2
                  and len(self.model.states) <= MAX_STATES)
    @rule(data=st.data(), via_cli=st.sampled_from([False] * 5 + [True]))
    def lie_offline(self, data, via_cli):
        i, j = data.draw(st.permutations(sorted(self.model.agents)))[:2]
        self.step(via_cli, "lie_offline", ["lie-offline", "--liar", i, "--target", j], i, j)

    @precondition(lambda self: len(self.model.agents) < MAX_AGENTS
                  and len(self.model.states) <= MAX_STATES)
    @rule(data=st.data(), via_cli=st.sampled_from([False] * 5 + [True]))
    def lie_online(self, data, via_cli):
        j, locs = self.newcomer(), self.states(data)
        i = data.draw(st.sampled_from(sorted(self.model.agents)))
        self.step(via_cli, "lie_online", ["lie-online", "--liar", i, "--new", j, "--locals",
                                          *sorted(s.name for s in locs)], i, j, locs)

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
