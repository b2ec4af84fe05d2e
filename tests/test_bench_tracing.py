"""The benchmark's tracer (`bench/tracing.py`) finds the `epk` functions it
times by name.  Installing it here fails as soon as one of those names is
dropped or renamed."""

import importlib.util
import os

from epk import model, serialize
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
