"""The benchmark's tracer looks functions up by name: a name it reads that the
library no longer defines ends ``bench/run.py --trace 1`` with a KeyError.
This reads the benchmark's files and changes nothing in them."""

import importlib.util
import sys
from pathlib import Path

import miqpcert  # noqa: F401  (loads every layer module the tracer wraps)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its siblings by name
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)  # its dataclasses look themselves up
    spec.loader.exec_module(run)
    tracer = run.Tracer()
    tracer.wrap_layers()  # builds the wrappers without putting them in place
    wanted = set(run.PER_LAYER_FUNCTIONS) | {"polyhedra.iter_orthant_parts"}
    assert wanted <= set(tracer.keys), sorted(wanted - set(tracer.keys))
