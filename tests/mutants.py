"""Fault injection: each hand-written mutant below must fail its tests.

Run from the root of the repository:

    python tests/mutants.py

For each mutant, `src`, `tests`, `fixtures`, `bench` and `pyproject.toml`
are copied to a temporary directory, the one occurrence of the mutant's
old text in its file is replaced by its new text, and the mutant's tests
run there under pytest with `-x`.  A mutant is killed when they fail.
The kill table is printed, and the exit status is 1 when an old text does
not occur exactly once (a refactor moved the code it names: rewrite the
row against the new code) or a mutant is not killed.

Pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "fixtures", "bench", "pyproject.toml")

# (name, the fault, file, old text, new text, tests that should kill it)
MUTANTS = [
    ("M1", "`B`'s operand asked at its own need, not at successors",
     "src/epk/semantics.py",
     "n = full if n.bit_count() > dense else idx.image(n, (g.agent,))",
     "n = full if n.bit_count() > dense else n",
     ["tests/test_semantics.py::TestSat"]),
    ("M2", "a unary operand's need overwritten, not unioned",
     "src/epk/semantics.py",
     "need[id(g.sub)] = need.get(id(g.sub), 0) | n",
     "need[id(g.sub)] = n",
     ["tests/test_semantics.py::TestSat"]),
    ("M3", "a binary left operand's need overwritten, not unioned",
     "src/epk/semantics.py",
     "need[id(g.left)] = need.get(id(g.left), 0) | n",
     "need[id(g.left)] = n",
     ["tests/test_semantics.py::TestSat"]),
    ("M3'", "a binary right operand's need overwritten, not unioned",
     "src/epk/semantics.py",
     "need[id(g.right)] = need.get(id(g.right), 0) | n",
     "need[id(g.right)] = n",
     ["tests/test_semantics.py::TestSat"]),
    ("M4", "informed agents lose their edges in shift",
     "src/epk/updates.py",
     "INFORMED: Wiring = (0, (0, 1))",
     "INFORMED: Wiring = (0, (0, None))",
     ["tests/test_rows.py::TestUpdatesOnLineageNames"]),
    ("M5", "`edge_count` counts the empty rows of a shared mask",
     "src/epk/model.py",
     "return first.bit_count() * (len(rows) - empty)",
     "return first.bit_count() * len(rows)",
     ["tests/test_rows.py::TestEdgeCount"]),
    ("M6", "a source's second run of pairs overwrites its first",
     "src/epk/model.py",
     "row[k] = row[k] | mask if row[k] else mask",
     "row[k] = mask",
     ["tests/test_rows.py::TestRoundTrip"]),
    ("M7", "`_edge_diff` skips carrying rows into the old numbering",
     "src/epk/updates.py",
     "(old[k] & carry(row)).bit_count()",
     "(old[k] & row).bit_count()",
     ["tests/test_rows.py::TestUpdatesOnLineageNames",
      "tests/test_acceptance.py::test_criterion_6_oracle_equivalence"]),
    ("M8", "local domain closed under every agent",
     "src/epk/frames.py",
     "idx.closure(idx.locals[a], [a])",
     "idx.closure(idx.locals[a], model.agents)",
     ["tests/test_frames.py::TestClassify"]),
    ("M9", "symmetric witness names s, not the state missing the edge back",
     "src/epk/frames.py",
     "[(low(missing(held, t_row)), low(ts))",
     "[(low(held), low(ts))",
     ["tests/test_frames.py::TestAgainstDefinitions"]),
    ("M10", "offline-lie target keeps its edges in shift",
     "src/epk/updates.py",
     "j: (0, (0, None))",
     "j: (0, (0, 1))",
     ["tests/test_updates.py::TestLieOffline"]),
    ("M11", "discarded states reported without their tag",
     "src/epk/updates.py",
     "frozenset(s if tag is None else s.tagged(tag) for tag, m",
     "frozenset(s for tag, m",
     ["tests/test_updates.py::TestLieOnline",
      "tests/test_acceptance.py::test_criterion_6_oracle_equivalence"]),
    ("M12", "a newcomer's local states put in event 0",
     "src/epk/updates.py",
     "newcomer: (last, (None,) * last + (last,))",
     "newcomer: (0, (None,) * last + (last,))",
     ["tests/test_updates.py::TestLieOnline"]),
    ("M13", "save drops `meta`",
     "src/epk/serialize.py",
     "if model.meta:\n        yield ',",
     "if False:\n        yield ',",
     ["tests/test_serialize_cli.py::TestDocuments"]),
    ("M14", "product valuation taken from event 0 only",
     "src/epk/model.py",
     "{p: reduce(or_, (c(m) for c in carry)) for p, m in self.valuation.items()}",
     "{p: carry[0](m) for p, m in self.valuation.items()}",
     ["tests/test_updates.py::TestPreservationAndComposition"]),
    ("M15", "the constructor drops the `locals`-key check",
     "src/epk/model.py",
     "if index.locals.keys() != index.rows.keys():",
     "if False:",
     ["tests/test_cli_contract.py"]),
    ("M16", "the constructor drops the agent-name check",
     "src/epk/model.py",
     '_check_token(a, "agent")',
     "pass",
     ["tests/test_model.py::TestNames"]),
    ("M17", "the constructor drops the proposition-name check",
     "src/epk/model.py",
     '_check_token(p, "proposition")',
     "pass",
     ["tests/test_cli_contract.py"]),
    ("M18", "`build` stops comparing its agents with the keys of `relations`",
     "src/epk/model.py",
     "if set(relations) != set(agents):",
     "if False:",
     ["tests/test_model.py::TestValidation"]),
    ("M19", "`build` stops comparing its propositions with the keys of `valuation`",
     "src/epk/model.py",
     "if set(valuation) != set(props):",
     "if False:",
     ["tests/test_cli_contract.py"]),
    ("B1", "`build` stops refusing a mapping where names belong",
     "src/epk/model.py",
     "not isinstance(items, (str, Mapping))",
     "not isinstance(items, str)",
     ["tests/test_model.py::TestValidation::test_a_string_or_a_bad_pair_is_refused"]),
    ("B2", "`build` stops refusing a non-list target list",
     "src/epk/model.py",
     "plain = (set(map(type, relation.values())) <= _PLAIN",
     "plain = (True",
     ["tests/test_model.py::TestValidation::test_a_string_or_a_bad_pair_is_refused"]),
    ("B3", "`build` reads a pair of three as its first two names",
     "src/epk/model.py",
     "<= _PLAIN and set(map(len, relation)) <= {2}",
     "<= _PLAIN",
     ["tests/test_model.py::TestValidation::test_a_string_or_a_bad_pair_is_refused"]),
    ("B4", "`build` reports a name of another type as an undeclared state",
     "src/epk/model.py",
     "                _relation_fault(relation, where)\n                raise",
     "                raise",
     ["tests/test_model.py::TestValidation::test_a_string_or_a_bad_pair_is_refused"]),
    ("B5", "`build` stops refusing a field that is not a mapping",
     "src/epk/model.py",
     "if not isinstance(named, Mapping):",
     "if False:",
     ["tests/test_model.py::TestValidation::test_a_string_or_a_bad_pair_is_refused"]),
    ("D1", "`doc_to_model` catches nothing around `build`",
     "src/epk/serialize.py",
     "except ModelError as e:",
     "except () as e:",
     ["tests/test_serialize_cli.py::TestDocuments::test_bad_shapes_are_rejected"]),
    ("D2", "`doc_to_model` stops checking that names and `meta` are valid Unicode",
     "src/epk/serialize.py",
     '"".join(texts).encode("utf-8")',
     '"".join(texts)',
     ["tests/test_cli_contract.py"]),
    ("C1", "`show` dispatches to `_cmd_validate`",
     "src/epk/cli.py",
     "set_defaults(run=_cmd_show)",
     "set_defaults(run=_cmd_validate)",
     ["tests/test_serialize_cli.py::TestCli"]),
    ("W1", "the writer lists a relation's sources in state order, not name order",
     "src/epk/serialize.py",
     "for k in by_name:",
     "for k in range(len(names)):",
     ["tests/test_serialize_cli.py::TestDocuments::test_names_are_written_in_name_order"]),
    ("W2", "the writer lists a target list in state order, not name order",
     "src/epk/serialize.py",
     "sorted(positions(mask), key=name_of)",
     "positions(mask)",
     ["tests/test_serialize_cli.py::TestDocuments::test_names_are_written_in_name_order"]),
    ("W3", "`_json_object` closes an object with `]`",
     "src/epk/serialize.py",
     'depth, "{}")',
     'depth, "{]")',
     ["tests/test_serialize_cli.py::TestDocuments::test_names_are_written_in_name_order"]),
    ("S1", "`presence_at` joins the agent's presence and the state with `|`, not `&`",
     "src/epk/semantics.py",
     "model.index.present.get(j, 0) & model.index.mask((state,))",
     "model.index.present.get(j, 0) | model.index.mask((state,))",
     ["tests/test_semantics.py::TestPresence"]),
    ("P1", "`->` also reduced at an equal level, so it groups to the left",
     "src/epk/formulas.py",
     "(level + 1, level) if cls is Implies",
     "(level, level) if cls is Implies",
     ["tests/test_formulas.py"]),
    ("P2", "`&` and `|` not reduced at an equal level, so they group to the right",
     "src/epk/formulas.py",
     "else (level, level + 1)",
     "else (level + 1, level + 1)",
     ["tests/test_formulas.py"]),
    ("P3", "the levels of `|` and `&` swapped",
     "src/epk/formulas.py",
     '"|": (Or, 2), "&": (And, 3)',
     '"|": (Or, 3), "&": (And, 2)',
     ["tests/test_formulas.py"]),
    ("L1", "the liar of `lie_online` misinformed",
     "src/epk/updates.py",
     "i: INFORMED}, j, new_locals)",
     "i: MISINFORMED}, j, new_locals)",
     ["tests/test_acceptance.py::test_criterion_4_untruthful_update_laws"]),
    ("L2", "the target of `lie_offline` keeps its edges in shift",
     "src/epk/updates.py",
     "j: (0, (0, None))",
     "j: (0, (0, 1))",
     ["tests/test_updates.py::TestLargerModels::test_update_laws",
      "tests/test_update_chains.py"]),
]


def run(mutant, scratch: str) -> str:
    """'killed', 'SURVIVED', 'OLD TEXT xN' (found N times, not once) or 'ERROR (exit n)'."""
    name, _fault, path, old, new, tests = mutant
    tree = os.path.join(scratch, name)
    for item in COPIED:
        source, target = os.path.join(ROOT, item), os.path.join(tree, item)
        if os.path.isdir(source):
            shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(source, target)
    with open(os.path.join(tree, path), encoding="utf-8") as f:
        text = f.read()
    if text.count(old) != 1:
        return f"OLD TEXT x{text.count(old)}"
    with open(os.path.join(tree, path), "w", encoding="utf-8") as f:
        f.write(text.replace(old, new))
    env = {**os.environ, "PYTHONPATH": "src"}
    code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    return {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (exit {code})")


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="epk-mutants-") as scratch:
        for mutant in MUTANTS:
            start = time.perf_counter()
            outcome = run(mutant, scratch)
            failed += outcome != "killed"
            print(f"{mutant[0]:<4} {outcome:<10} {time.perf_counter() - start:5.1f} s  "
                  f"{mutant[1]}  [{' '.join(mutant[5])}]", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
