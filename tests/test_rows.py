"""Relations stored as successor rows: the edge view over them, the load and
save path that passes them along, updates on them, and their cost."""

import io
import json
import os
import random
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from epk import (DocumentError, KripkeModel, StateId, cli, doc_to_model, dumps_dot,
                 dumps_model, holds_globally,
                 lie_offline, lie_online, load_model, model_to_doc, parse,
                 prune_unreachable, replicate_with_lineage, sat, update_offline, update_online)
from epk.model import Edges, ModelIndex, edge_count
from epk.updates import _edge_diff, _product
from helpers import best_time, fixture_path, random_sparse_model


def S(name):
    return StateId.parse(name)


LINEAGES = ["", "@act", "@shift", "@act@shift", "@shift@act", "@act@act"]


def lineage_model(rng, min_states=30, max_states=50):
    """A random model whose state names carry lineage, so that they sort
    differently as names and as states ("10" < "1@act", but state 1@act
    comes first).  Densities vary per agent; one agent may be universal."""
    pool = [f"{base}{tag}" for base in range(1, 21) for tag in LINEAGES]
    names = rng.sample(pool, rng.randint(min_states, max_states))
    agents = rng.sample(["a", "b", "c"], rng.randint(1, 3))
    relations = {}
    for a in agents:
        density = rng.choice([0.0, 0.05, 0.3, 1.0])
        relations[a] = [(s, t) for s in names for t in names if rng.random() < density]
    return KripkeModel.build(
        states=names, agents=agents, props=["p", "q"], relations=relations,
        valuation={p: [s for s in names if rng.random() < 0.5] for p in ("p", "q")},
        locals={a: rng.sample(names, rng.randint(1, 4)) for a in agents},
        meta=rng.choice([{}, {"name": "lineage"}]))


def random_wiring(rng, model):
    """A random valid wiring of `updates._product` on `model`: one, or two
    tagged, events; each agent dropped or given a home and links that never
    point to an earlier event; and a newcomer or none."""
    tags = rng.choice([(None,), ("act",), ("act", "shift")])
    last = len(tags) - 1
    wiring = {}
    for a in sorted(model.agents):
        if rng.random() < 0.25:
            continue
        links = tuple(None if rng.random() < 0.25 else rng.randint(e, last)
                      for e in range(last + 1))
        wiring[a] = (rng.randint(0, last), links)
    if rng.random() < 0.5:
        return tags, wiring, None, ()
    return tags, wiring, "z", set(rng.sample(sorted(model.states), rng.randint(1, 3)))


def row_edges(model, agent):
    """The edges of `agent`'s rows, read bit by bit."""
    idx = model.index
    n = len(idx.order)
    rows = idx.rows[agent]
    return {(idx.order[k], idx.order[t]) for k in range(n) for t in range(n) if rows[k] >> t & 1}


class TestEdgeView:
    def test_size_membership_and_order(self):
        m = load_model(fixture_path("figure2"))
        view = m.relations["m"]
        assert isinstance(view, Edges)
        assert len(view) == 5
        assert (S("1"), S("2")) in view
        assert (S("3"), S("1")) not in view
        assert (S("9"), S("1")) not in view
        assert "12" not in view and None not in view
        assert list(view) == sorted(view)

    def test_set_operations_return_frozensets(self):
        m = load_model(fixture_path("figure2"))
        loops = {(s, s) for s in m.states}
        assert m.relations["m"] - loops == {(S("1"), S("2")),
                                            (S("2"), S("1"))}
        assert isinstance(m.relations["m"] & loops, frozenset)
        assert frozenset(m.relations["m"]) == m.relations["m"]

    def test_relations_are_read_only(self):
        m = load_model(fixture_path("figure2"))
        with pytest.raises(TypeError):
            m.relations["m"] = frozenset()
        with pytest.raises(AttributeError):
            m.relations = {}

    def test_universal_relation_is_one_mask_per_row(self):
        m = load_model(fixture_path("figure2"))
        on = update_online(m, "z", {S("1")}).model
        idx = on.index
        assert idx.rows["z"] == [idx.full] * 3
        assert len(on.relations["z"]) == 9

    def test_replication_renumbers_when_the_order_changes(self):
        # 1 < 1@act, but 1@act@shift < 1@shift.
        m = KripkeModel.build(states=["1", "1@act"], agents=["a"], props=["p"],
                              relations={"a": [("1", "1@act")]}, valuation={"p": ["1"]},
                              locals={"a": ["1"]})
        copy = replicate_with_lineage(m, "shift")
        assert [s.name for s in copy.index.order] == ["1@act@shift", "1@shift"]
        assert set(copy.relations["a"]) == {(S("1@shift"), S("1@act@shift"))}
        assert copy.valuation["p"] == {S("1@shift")}


def popcounts(rows):
    return sum(map(int.bit_count, rows))


MASK = (1 << 70) - 1


class TestEdgeCount:
    @pytest.mark.parametrize("rows", [
        [], [0, 0, 0], [MASK] * 4, [0, MASK, 0, MASK], [0, 0, MASK, MASK, 0],
        [int("9" * 30) for _ in range(3)], [1, 3, 0, 7, 3], [MASK, MASK, MASK ^ 1, 0],
        [MASK, 0, MASK ^ 1, MASK],
    ], ids=["empty", "zeros", "shared", "alternating", "leading-zeros", "equal-distinct",
            "mixed", "shared-but-last", "shared-ends"])
    def test_equals_the_popcounts(self, rows):
        assert edge_count(rows) == popcounts(rows)

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_every_relation_after_the_four_updates(self, seed):
        rng = random.Random(seed)
        base = lineage_model(rng)
        agents = sorted(base.agents)
        locs = set(rng.sample(sorted(base.states), 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            on = update_online(base, "z", locs).model
            models = [base, on, update_offline(base, agents[-1]).model,
                      lie_offline(on, agents[0], "z").model,
                      lie_online(base, agents[0], "y", locs).model,
                      lie_online(on, agents[0], "y", locs).model]
        for m in models:
            for a, rows in m.index.rows.items():
                assert edge_count(rows) == len(m.relations[a]) == popcounts(rows)


class TestRoundTrip:
    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_load_dump_round_trip(self, seed):
        m = lineage_model(random.Random(seed))
        text = dumps_model(m)
        assert text == json.dumps(model_to_doc(m), indent=2, sort_keys=True) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            again = load_model(path)
        assert again == m
        assert dumps_model(again) == text
        for a in m.agents:
            edges = row_edges(m, a)
            assert m.relations[a] == edges and set(m.relations[a]) == edges
            assert len(m.relations[a]) == len(edges)
            assert again.relations[a] == edges

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_pair_lists_and_adjacency_maps_load_alike(self, seed):
        rng = random.Random(seed)
        m = lineage_model(rng)
        maps = model_to_doc(m)
        pairs = {**maps, "relations": {}}
        for a in m.agents:
            edges = [[s.name, t.name] for (s, t) in m.relations[a]]
            pairs["relations"][a] = rng.sample(edges, len(edges))
        text = json.dumps(maps, indent=2, sort_keys=True) + "\n"
        assert doc_to_model(pairs) == doc_to_model(maps) == m
        assert dumps_model(doc_to_model(pairs)) == dumps_model(doc_to_model(maps)) == text


class TestDot:
    """`dumps_dot` writes the text `oracles.oracle_dot` builds from the set
    views: clusters, labels, edges and escaping alike."""

    @pytest.mark.parametrize("name", ["figure2", "figure2_minus_g", "cube3", "gruffalo"])
    def test_fixtures_and_their_lies(self, name):
        m = load_model(fixture_path(name))
        lied = lie_online(m, sorted(m.agents)[0], "z", {sorted(m.states)[-1]}).model
        for model in (m, lied):
            assert dumps_dot(model) == oracles.oracle_dot(model)

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_lineage_models_and_their_lies(self, seed):
        rng = random.Random(seed)
        m = lineage_model(rng)
        liar = rng.choice(sorted(m.agents))
        lied = lie_online(m, liar, "z", set(rng.sample(sorted(m.states), 2))).model
        for model in (m, lied):
            assert dumps_dot(model) == oracles.oracle_dot(model)

    def test_hostile_names(self):
        names = ['a"b', "c\\", '\\"', "d", "tab\t", "new\nline"]
        m = KripkeModel.build(states=names, agents=["i"], props=["p"],
                              relations={"i": {'a"b': ["c\\"], "c\\": ['\\"', "d", "new\nline"]}},
                              valuation={"p": ['a"b', "tab\t"]}, locals={"i": ["c\\", "new\nline"]})
        assert dumps_dot(m) == oracles.oracle_dot(m)
        lied = lie_online(m, "i", "z", {S("d")}).model
        assert dumps_dot(lied) == oracles.oracle_dot(lied)


class TestUpdatesOnLineageNames:
    @given(st.integers(0, 10**9))
    @settings(max_examples=15, deadline=None)
    def test_updates_agree_with_oracles(self, seed):
        # Copies of 1 and 1@act interleave in the output's sorted order.
        rng = random.Random(seed)
        base = lineage_model(rng, 20, 35)
        agents = sorted(base.agents)
        i = agents[0]
        locs = set(rng.sample(sorted(base.states), 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pairs = [
                (update_offline(base, i), oracles.oracle_update_offline(base, i)),
                (update_online(base, "z", locs), oracles.oracle_update_online(base, "z", locs)),
                (lie_online(base, i, "z", locs), oracles.oracle_lie_online(base, i, "z", locs)),
            ]
            if len(agents) > 1:
                j = agents[-1]
                pairs.append((lie_offline(base, i, j), oracles.oracle_lie_offline(base, i, j)))
        for res, expected in pairs:
            assert res.model == expected
            assert dumps_model(res.model) == json.dumps(model_to_doc(res.model), indent=2,
                                                        sort_keys=True) + "\n"
            for a in base.agents | expected.agents:
                old = set(base.relations.get(a, ()))
                new = set(expected.relations.get(a, ()))
                assert (res.added_edges[a], res.removed_edges[a]) == (len(new - old),
                                                                      len(old - new))

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_edge_diff_on_one_numbering(self, seed):
        # Models that share one numbering compare their rows as they are.
        rng = random.Random(seed)
        before = lineage_model(rng)
        idx = before.index
        n = len(idx.order)
        rows = {a: [rng.getrandbits(n) if rng.random() < 0.3 else row for row in rows]
                for a, rows in idx.rows.items()}
        after = KripkeModel(ModelIndex(idx.order, rows, idx.valuation, idx.locals))
        assert after.index.order is idx.order
        old = {a: set(before.relations[a]) for a in before.agents}
        new = {a: set(after.relations[a]) for a in after.agents}
        assert _edge_diff(before, after) == ({a: len(new[a] - old[a]) for a in old},
                                             {a: len(old[a] - new[a]) for a in old})


    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_prune_and_replicate_equal_the_built_models(self, seed):
        # Pruning keeps the names and replicating tags them; built from the
        # filtered or renamed sets, the same models renumber from scratch.
        rng = random.Random(seed)
        m = lineage_model(rng)
        seeds = set().union(*m.locals.values())
        kept, frontier = set(seeds), set(seeds)
        while frontier:
            frontier = {t for a in m.agents for (s, t) in m.relations[a] if s in frontier} - kept
            kept |= frontier
        assert prune_unreachable(m, seeds) == KripkeModel.build(
            states=kept, agents=m.agents, props=m.props,
            relations={a: [(s, t) for (s, t) in m.relations[a] if s in kept] for a in m.agents},
            valuation={p: m.valuation[p] & kept for p in m.props},
            locals={a: m.locals[a] & kept for a in m.agents})
        tag = rng.choice(["act", "shift"])
        copy = replicate_with_lineage(m, tag)
        assert copy == KripkeModel.build(
            states=[s.tagged(tag) for s in m.states], agents=m.agents, props=m.props,
            relations={a: [(s.tagged(tag), t.tagged(tag)) for (s, t) in m.relations[a]]
                       for a in m.agents},
            valuation={p: [s.tagged(tag) for s in m.valuation[p]] for p in m.props},
            locals={a: [s.tagged(tag) for s in m.locals[a]] for a in m.agents})
        assert copy.meta == m.meta

    @given(st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_product_equals_the_oracle(self, seed):
        # Any valid wiring, not only the four updates', gives the model,
        # the discarded copies and the edge diff that the set-based
        # product of tests/oracles.py builds in full and prunes.
        rng = random.Random(seed)
        base = lineage_model(rng)
        tags, wiring, newcomer, new_locals = random_wiring(rng, base)
        res = _product(base, tags, wiring, newcomer, new_locals)
        model, discarded, added, removed = oracles.oracle_product(base, tags, wiring,
                                                                 newcomer, new_locals)
        assert res.model == model
        assert res.discarded_states == discarded
        assert (res.added_edges, res.removed_edges) == (added, removed)

    def test_edge_diff_on_renamed_states(self):
        # A replica shares the input's rows under new names, so by name
        # every edge is removed and added again.
        m = random_sparse_model(random.Random(30), 30)
        copy = replicate_with_lineage(m, "act")
        old = {a: set(m.relations[a]) for a in m.agents}
        new = {a: set(copy.relations[a]) for a in m.agents}
        assert _edge_diff(m, copy) == ({a: len(new[a] - old[a]) for a in old},
                                       {a: len(old[a] - new[a]) for a in old})


class TestComplexity:
    def test_online_costs_a_constant_factor_of_a_belief_query(self):
        # The newcomer's universal relation is one full mask per state, so
        # announcing it costs O(|S|), like one pass of the evaluator over
        # the states.  Written out as |S|^2 edges it costs thousands of
        # times more at this size.
        m = random_sparse_model(random.Random(3000), 3000)
        f = parse("B[a] p")
        holds_globally(m, f)
        locs = {m.index.order[0]}
        ratio = (best_time(lambda: update_online(m, "z", locs))
                 / best_time(lambda: sat(m, f)))
        assert ratio <= 10, f"update_online took {ratio:.1f}x a belief query"

    def test_online_counts_the_newcomers_edges_once_per_mask(self):
        # Every row of the newcomer's universal relation is one full mask,
        # popcounted once, so the update's cost does not grow with the
        # |S|^2 edges it adds.  From 300 to 3000 states it measured
        # 1.1-1.6x; popcounting every row measured 19-26x.
        times = []
        for n in (300, 3000):
            m = random_sparse_model(random.Random(n), n)
            locs = {m.index.order[0]}
            assert update_online(m, "z", locs).added_edges["z"] == n * n
            times.append(best_time(lambda: update_online(m, "z", locs), k=20))
        ratio = times[1] / times[0]
        assert ratio <= 5, f"update_online on 3000 states took {ratio:.1f}x on 300"

    def test_online_hashes_only_the_new_local_states(self, monkeypatch):
        # The update keeps the input's numbering and masks, and a model's
        # sets of states are made only when read, so the states hashed are
        # the newcomer's local states, a few times each.
        m = random_sparse_model(random.Random(3000), 3000)
        locs = set(m.index.order[::600])
        hashed = 0
        unpatched = StateId.__hash__

        def counted(self):
            nonlocal hashed
            hashed += 1
            return unpatched(self)

        monkeypatch.setattr(StateId, "__hash__", counted)
        update_online(m, "z", locs)
        assert hashed <= 4 * len(locs), f"{hashed} states hashed for {len(locs)} local states"

    def test_lies_after_online_cost_a_constant_factor_of_the_same_lie(self):
        # After update_online the newcomer's relation holds |S|^2 edges, as
        # one full mask per state.  A lie carries each distinct row once, so
        # it costs about what it costs on the input: measured 1.05-1.08x.
        m = random_sparse_model(random.Random(1000), 1000)
        locs = {m.index.order[0]}
        on = update_online(m, "z", locs).model
        assert len(on.relations["z"]) == 10**6
        lies = {"lie_online": lambda x: lie_online(x, "a", "y", locs),
                "lie_offline": lambda x: lie_offline(x, "a", "b")}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name, lie in lies.items():
                ratio = best_time(lambda: lie(on)) / best_time(lambda: lie(m))
                assert ratio <= 3, f"{name} after update_online took {ratio:.1f}x the same lie"

    def test_counting_a_lies_newcomer_is_linear(self):
        # After lie_online the newcomer's rows are 0 (act copies) or one
        # shared mask (shift copies), popcounted once.  The two sizes are
        # timed in turn, so both meet the same load.  From 300 to 3000
        # states it measured 16-22x; popcounting every row measured 54-88x.
        views = []
        for n in (300, 3000):
            m = random_sparse_model(random.Random(n), n)
            lie = lie_online(m, "a", "w", {m.index.order[0]}).model
            views.append(lie.relations["w"])
            assert len(views[-1]) == n * n
        best = [float("inf")] * 2
        for _ in range(10):
            for k, view in enumerate(views):
                best[k] = min(best[k], best_time(lambda: len(view), k=5))
        ratio = best[1] / best[0]
        assert ratio <= 35, f"counting the newcomer on 3000 states took {ratio:.1f}x on 300"

    def test_a_repeated_key_is_found_in_one_count_of_the_keys(self, tmp_path):
        # The last key of a 20k-key object is given twice.  Reporting it
        # counts the keys once, which measured 1.4-1.9 times reading the
        # object; counting each key in the list took seconds.
        members = [f'"s{k}": []' for k in range(20000)]
        plain, repeated = tmp_path / "plain.json", tmp_path / "repeated.json"
        plain.write_text("{" + ", ".join(members) + "}")
        repeated.write_text("{" + ", ".join(members + members[-1:]) + "}")

        def refused(path, message):
            with pytest.raises(DocumentError, match=message):
                load_model(str(path))

        ratio = (best_time(lambda: refused(repeated, 'duplicate key "s19999"'))
                 / best_time(lambda: refused(plain, "missing 'states'")))
        assert ratio <= 5, f"refusing the repeated key took {ratio:.1f}x reading the object"


    def test_unchanged_rows_are_shared_not_copied(self):
        # An arrival keeps every old row, so it costs O(|S|) only if those
        # rows, and the numbering, are shared rather than carried.
        m = random_sparse_model(random.Random(5), 200)
        idx = m.index
        on = update_online(m, "z", [idx.order[0]]).model.index
        assert on.bit is idx.bit
        assert all(on.rows[a] is idx.rows[a] for a in idx.rows)
        pruned = prune_unreachable(m, idx.order).index
        assert all(pruned.rows[a] is idx.rows[a] for a in idx.rows)


class TestNoEdgeObjects:
    def test_cli_never_iterates_an_edge_view(self, tmp_path, monkeypatch):
        # Loading, updating, checking, validating, saving, DOT export and
        # `show` pass rows along; any edge set made on the way would
        # iterate a view, and no command reads the set views at all.
        def refuse(self):
            raise AssertionError("an edge view was iterated")

        monkeypatch.setattr(Edges, "__iter__", refuse)
        for view in ("relations", "valuation", "locals"):
            def read(self, view=view):
                raise AssertionError(f"the {view} view was read")

            monkeypatch.setattr(KripkeModel, view, property(read))
        src = fixture_path("figure2_minus_g")
        steps = [
            [src, "update", "lie-online", "--liar", "m", "--new", "g", "--locals", "3",
             "-o", str(tmp_path / "1.json")],
            [str(tmp_path / "1.json"), "update", "online", "h", "--locals", "1@shift",
             "-o", str(tmp_path / "2.json")],
            [str(tmp_path / "2.json"), "update", "lie-offline", "--liar", "f", "--target", "g",
             "-o", str(tmp_path / "3.json")],
            [str(tmp_path / "3.json"), "update", "offline", "h", "-o", str(tmp_path / "4.json")],
            [str(tmp_path / "4.json"), "validate", "--mode", "local"],
            [str(tmp_path / "4.json"), "validate", "--mode", "global"],
            [str(tmp_path / "2.json"), "check", "--global", "C[f,h]"],
            [str(tmp_path / "2.json"), "check", "--agent", "f", "B[f] C[f,g]"],
            [str(tmp_path / "2.json"), "check", "--state", "1@shift", "P[m,h]"],
            [str(tmp_path / "2.json"), "show"],
            [str(tmp_path / "2.json"), "export-dot", "-o", str(tmp_path / "2.dot")],
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for argv in steps:
                out, err = io.StringIO(), io.StringIO()
                assert cli.main(argv, out=out, err=err) == 0, (argv, err.getvalue())
                assert err.getvalue() == ""
