"""The benchmark's tracer (`bench/tracing.py`) finds the `epk` functions it
times by name.  Installing it here fails as soon as one of those names is
dropped or renamed.  Traced CLI updates are checked against the files they
write."""

import importlib.util
import io
import os
import shutil

from epk import cli, model, serialize
from helpers import fixture_path

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    build, load = model.KripkeModel.__dict__["build"], serialize.load_model
    tracer = tracing.Tracer()
    try:
        tracer.install()
        serialize.load_model(fixture_path("figure2"))
    finally:
        tracer.uninstall()
    assert model.KripkeModel.__dict__["build"] is build and serialize.load_model is load
    metrics = tracer.metrics(rounds=1)
    # Loading a document ends in `KripkeModel.build`.
    assert metrics["serialize.load_model.calls"] == metrics["model.KripkeModel.build.calls"] == 1


def test_traced_updates_count_the_edges_they_write(tmp_path):
    # Each CLI update is one span, and `updates.edges_out` counts the
    # edges of the models the updates return, which are the ones written.
    # The parser is built before the tracer is installed, as in a process
    # whose earlier commands ran untraced: an update the parser bound then
    # would go uncounted.
    src = str(tmp_path / "in.json")
    shutil.copy(fixture_path("figure2_minus_g"), src)
    steps = {"update_online": ["online", "g", "--locals", "3"],
             "lie_online": ["lie-online", "--liar", "m", "--new", "g", "--locals", "3"],
             "update_offline": ["offline", "f"],
             "lie_offline": ["lie-offline", "--liar", "m", "--target", "f"]}
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    assert cli.main([src, "show"], out=io.StringIO()) == 0
    try:
        tracer.install()
        for name, argv in steps.items():
            err = io.StringIO()
            assert cli.main([src, "update", *argv, "-o", str(tmp_path / f"{name}.json")],
                            out=io.StringIO(), err=err) == 0, err.getvalue()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(rounds=1)
    written = [serialize.load_model(str(tmp_path / f"{name}.json")) for name in steps]
    for name in steps:
        assert metrics[f"updates.{name}.calls"] == 1
    assert metrics["updates.edges_out"] == sum(len(r) for m in written
                                               for r in m.relations.values())
