"""Every certificate of the benchmark's three corpora, and of three fuzz
corpora the benchmark never reaches, pinned by one sha256 per corpus.

Each generated instance is solved in generator order with the ``h_to_v``
cache cleared first, and its serialized certificate (or ``infeasible``) goes
into the corpus digest.  The fuzz corpora are 300 instances each of the
unbounded generator:
- seed 4: its residual windows send 156 fibers with continuous coordinates
  to the QP at a nonzero shift, 52 of them with p = 0, where the benchmark
  corpora send at most one;
- seed 12: it holds the long-tail instance 12 / 274, and its residual
  windows send 313 such fibers to the QP at a nonzero shift, 305 of them
  from 12 / 274;
- seed 13: it holds 13 / 33 and 13 / 261, the slowest instances of seeds
  1 to 13, which spend nearly all their time in the residual window search.
A window certificate that claims ``bound=`` must have ||x|| <= bound; a
certificate above its bound fails its corpus, under ``python -O`` too.
A kernel change that claims byte-identical certificates must leave all six
digests as they are; a change that alters certificates on purpose updates
them and says which ones changed and why.
``bench/workloads.py`` is only read.

Needs no pytest, so it also runs on its own under any supported Python:

    PYTHONPATH=src python3 tests/test_certificate_digest.py
"""

import hashlib
import importlib.util
import random
import sys
from pathlib import Path

from miqpcert import find_certificate, h_to_v, parse_instance, serialize_certificate

BENCH = Path(__file__).resolve().parent.parent / "bench"

EXPECTED = {
    "maxcut5_sweep": "4625c2dc3fae011fbedf4fc9d18e9855b40dafca1d5827464da2ebb589b45150",
    "boxed_cli": "a8d73926952e51216667ee718270a0e5e809ebfccd4726c423bd4016887455b1",
    "unbounded_budget": "b261ea704cd39b0a21cf967e0a3b744a404f5dd988148a41483c598b2dd589d7",
    "unbounded_seed4": "a2ea0a72d5645f4895b485128565e5095753c52049335897047d3b59d412a1a0",
    "unbounded_seed12": "d33f8b8e68062702178338127dec49ed7c1aa9aa45fb4b29ea340cd94f7b27f6",
    "unbounded_seed13": "a1335f1805246139cb145191073bbc9e9f344ddbcdafec8b8413d10417358dd2",
}
FUZZ = {  # name: (generator's workload, seed, size)
    "unbounded_seed4": ("unbounded_budget", 4, 300),
    "unbounded_seed12": ("unbounded_budget", 12, 300),
    "unbounded_seed13": ("unbounded_budget", 13, 300),
}


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _generated(name: str) -> list:
    """The corpus's instances in generator order, set-aside ones left out."""
    if name in FUZZ:
        workload_name, seed, size = FUZZ[name]
        return _workloads()[workload_name].generator(random.Random(seed), size)
    workload = _workloads()[name]
    generated = workload.generator(random.Random(workload.corpus_seed), workload.corpus_size)
    return [case for index, case in enumerate(generated) if index not in workload.set_aside]


def corpus_digest(name: str) -> str:
    digest = hashlib.sha256()
    for index, case in enumerate(_generated(name)):
        h_to_v.cache_clear()
        cert = find_certificate(parse_instance(case.text))
        bound = None if cert is None else cert.trace.norm_bound
        if bound is not None and cert.point.dot(cert.point) > bound * bound:  # not an assert: it runs under -O too
            raise AssertionError(f"{name} instance {index}: certificate norm above its claimed bound {bound}")
        digest.update((serialize_certificate(cert) if cert is not None else "infeasible\n").encode())
    return digest.hexdigest()


def test_maxcut5_sweep_certificates():
    assert corpus_digest("maxcut5_sweep") == EXPECTED["maxcut5_sweep"]


def test_boxed_cli_certificates():
    assert corpus_digest("boxed_cli") == EXPECTED["boxed_cli"]


def test_unbounded_budget_certificates():
    assert corpus_digest("unbounded_budget") == EXPECTED["unbounded_budget"]


def test_unbounded_seed4_certificates():
    assert corpus_digest("unbounded_seed4") == EXPECTED["unbounded_seed4"]


def test_unbounded_seed12_certificates():
    assert corpus_digest("unbounded_seed12") == EXPECTED["unbounded_seed12"]


def test_unbounded_seed13_certificates():
    assert corpus_digest("unbounded_seed13") == EXPECTED["unbounded_seed13"]


if __name__ == "__main__":
    mismatched = 0
    for name, expected in EXPECTED.items():
        got = corpus_digest(name)
        mismatched += got != expected
        print(f"{name} {got} {'ok' if got == expected else 'MISMATCH'}")
    sys.exit(1 if mismatched else 0)
