"""Work counts of the benchmark's three corpora and of the long tail,
pinned like certificates.

Each instance of ``boxed_cli``, ``unbounded_budget`` and ``maxcut5_sweep``
is solved in generator order with the ``h_to_v`` cache cleared first, as in
``tests/test_certificate_digest.py``, and so are the three ``tail``
instances of the unbounded generator (seed / index 2 / 154, 7 / 227 and
12 / 274), where the residual window search does its work; no benchmark
corpus reaches ``certifier._relaxed_bound``.  Seven per-entry totals are
compared with committed constants:
- ``h_to_v misses``: polyhedra enumerated, read from the cache's own
  statistics;
- ``back-substitutions``: calls of ``linalg._affine_hull``, through every
  module that imports it, one per line of each enumeration, one per face
  hull below and, when its reduced system is nonsingular, one more per
  linear term minimized on it, one per cone-multiplier solve, and one per
  basic solution a normalizing hyperplane tries (one in all when it has n
  generators);
- ``face hulls``: calls of ``qp._hull_stationary_point``, one per QP face
  hull of dimension at least two, shared by every linear term minimized on
  it, and one per support of two or more rays of each cone slice solved
  (a slice's vertices are valued in closed form, and a part reads back a
  slice it has already minimized over the same hyperplane).  A line's
  1 x 1 system is solved in closed form on a line ``h_to_v`` already has;
- ``integer rows``: calls of ``linalg._integer_row``, through every module
  that imports it, one per rational row, point or form scaled to integers:
  the instance's rows and form, the points the hot path is handed, each
  restricted fiber's rows and form, each scaled once by its own cached
  property, and the rays of each normalizing hyperplane;
- ``box bounds``, ``relaxed bounds`` and ``fiber minima``: calls of
  ``certifier._box_bound``, ``_relaxed_bound`` and ``_fiber_min``, the
  residual window search's closed-form bound, its QP relaxation and its
  fiber QPs.
``linalg.solve_linear_system``, the general solver, must not run at all,
through any module that binds it.  Every ``miqpcert.<module>`` that binds a
counted function must be in ``COUNTED``, so no call goes past the counters.

Timed pairs on a shared machine swing by up to a factor of two; counts do
not.  A change that changes the work updates the constants and says which
moved, and by how much, as a digest change must.  ``bench/workloads.py`` is
only read.

Needs no pytest, so it also runs on its own under any supported Python,
with or without asserts:

    PYTHONPATH=src python3 tests/test_work_counts.py
"""

import importlib
import pkgutil
import random
import sys
from collections import Counter

import miqpcert
from miqpcert import certifier, cones, find_certificate, h_to_v, linalg, milp, parse_instance, polyhedra, qp

from test_certificate_digest import _generated, _workloads

TAIL = ((2, 154), (7, 227), (12, 274))  # (seed, index) of the unbounded generator
EXPECTED = {
    "boxed_cli": {
        "h_to_v misses": 772,
        "back-substitutions": 5187,
        "face hulls": 397,
        "integer rows": 8357,
        "box bounds": 0,
        "relaxed bounds": 0,
        "fiber minima": 1078,
    },
    "unbounded_budget": {
        "h_to_v misses": 218,
        "back-substitutions": 1178,
        "face hulls": 210,
        "integer rows": 2846,
        "box bounds": 161,
        "relaxed bounds": 0,
        "fiber minima": 139,
    },
    "maxcut5_sweep": {
        "h_to_v misses": 605,
        "back-substitutions": 48400,
        "face hulls": 0,
        "integer rows": 19185,
        "box bounds": 0,
        "relaxed bounds": 0,
        "fiber minima": 11367,
    },
    "tail": {
        "h_to_v misses": 874,
        "back-substitutions": 18814,
        "face hulls": 5976,
        "integer rows": 16051,
        "box bounds": 2391,
        "relaxed bounds": 148,
        "fiber minima": 1384,
    },
}
# the module attributes counted, under the counter each adds to
COUNTED = (
    *((module, "_affine_hull", "back-substitutions") for module in (linalg, polyhedra, qp, cones)),
    (qp, "_hull_stationary_point", "face hulls"),
    (linalg, "solve_linear_system", "integer solves"),
    *((module, "_integer_row", "integer rows") for module in (linalg, polyhedra, qp, milp, cones, certifier)),
    (certifier, "_box_bound", "box bounds"),
    (certifier, "_relaxed_bound", "relaxed bounds"),
    (certifier, "_fiber_min", "fiber minima"),
)


def _cases(name: str) -> list:
    if name != "tail":
        return _generated(name)
    generator = _workloads()["unbounded_budget"].generator
    return [generator(random.Random(seed), index + 1)[index] for seed, index in TAIL]


def corpus_counts(name: str) -> Counter:
    counts: Counter = Counter()

    def counting(key, fn):
        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in COUNTED]
    for module, attr, key in COUNTED:
        setattr(module, attr, counting(key, getattr(module, attr)))
    try:
        for case in _cases(name):
            h_to_v.cache_clear()
            find_certificate(parse_instance(case.text))
            counts["h_to_v misses"] += h_to_v.cache_info().misses
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)
    return counts


def _uncounted() -> list[str]:
    """Each ``miqpcert.<module>`` binding of a counted function that
    ``COUNTED`` leaves out: calls through it would go uncounted.  The
    package ``__init__`` re-exports ``solve_linear_system`` but never calls
    it, and ``pkgutil`` lists only its submodules."""
    counted = {(module.__name__, attr) for module, attr, _ in COUNTED}
    functions = {attr: getattr(module, attr) for module, attr, _ in COUNTED}
    missing = []
    for info in pkgutil.iter_modules(miqpcert.__path__):
        module = importlib.import_module(f"miqpcert.{info.name}")
        for attr, fn in functions.items():
            if getattr(module, attr, None) is fn and (module.__name__, attr) not in counted:
                missing.append(f"{module.__name__}.{attr}")
    return missing


def _mismatches(name: str) -> list[str]:
    counts = corpus_counts(name)
    wrong = [f"{key} {counts[key]}, expected {value}" for key, value in EXPECTED[name].items() if counts[key] != value]
    if counts["integer solves"]:
        wrong.append(f"integer solves {counts['integer solves']}, expected 0")
    return wrong


def test_boxed_cli_work():
    assert _mismatches("boxed_cli") == []


def test_unbounded_budget_work():
    assert _mismatches("unbounded_budget") == []


def test_maxcut5_sweep_work():
    assert _mismatches("maxcut5_sweep") == []


def test_tail_work():
    assert _mismatches("tail") == []


def test_every_binding_is_counted():
    assert _uncounted() == []


if __name__ == "__main__":
    uncounted = _uncounted()
    print(f"bindings {'uncounted: ' + ', '.join(uncounted) if uncounted else 'ok'}")
    failed = bool(uncounted)
    for name in EXPECTED:
        wrong = _mismatches(name)
        failed += bool(wrong)
        print(f"{name} {'; '.join(wrong) if wrong else 'ok'}")
    sys.exit(1 if failed else 0)
