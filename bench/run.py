"""Seeded end-to-end benchmark of miqpcert.

    python3 bench/run.py --budget-ref 20000 --workload boxed_cli --seed 1 --seconds 35 --trace 0

Runs one workload (see ``workloads.py``) in this process on one thread.  The
loop is closed with one caller: each instance is parsed, decided
(``find_certificate``, which re-verifies its own certificate) and its
certificate serialized before the next starts.  The first pass covers the
whole corpus in the order ``--seed`` gives it; further passes repeat it,
except for instances that timed out, until ``--seconds`` of solving have
passed.  Outcome counts, ``verdict_frac`` and ``cert_bits_ratio_max`` come
from the first pass.  An instance that runs past ``--budget-ref``
reference-kernel times (see "machine speed" below) is stopped and counts as a
timeout.  Every solve of every pass
goes through the correctness gate outside the timed region, and a wrong
verdict or a certificate that does not verify fails the run (exit code 1).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one pass in
which each instance is solved untraced and then with the layers wrapped (see
``layertrace.py``), and prints the per-layer metrics.  Lines starting with
``#`` explain the numbers; the last line of standard output is one JSON
object.

miqpcert is imported from ``src/`` of the checkout this file sits in; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from layertrace import LAYERS, ROOT, Tracer
from workloads import WORKLOADS, Case, Workload

REPO = Path(__file__).resolve().parent.parent
SPAN_DIR = REPO / ".bench_out"
SETUP_REPEATS = 15
TAIL_PERCENTILES = (99.9, *range(99, 49, -1))
OUTCOMES = ("negative-ray", "linear-ray", "window-qp", "infeasible", "timeout", "error")

# Measured when the roadmap was last re-anchored (Python 3.11, 2-core machine).
REANCHOR_MAXCUT_MS = 19.1  # per solve, first 200 graphs on 5 vertices x k = 0..10
REANCHOR_BOXED_S_PER_500 = 9.6  # one pass of the criterion-1 corpus
REANCHOR_UNBOUNDED_MIX = {  # seed 1, 300 instances, 20 s budget
    "negative-ray": 189, "window-qp": 66, "linear-ray": 4, "infeasible": 37, "timeout": 4,
}


class SolveTimeout(Exception):
    """The per-instance budget ran out."""


def _alarm(signum, frame):
    raise SolveTimeout


@dataclass
class Sample:
    case: int  # index into the corpus
    first_pass: bool
    outcome: str  # one of OUTCOMES
    start: float
    seconds: float
    cert_text: str | None = None
    error: str | None = None
    ref_s: float = math.nan  # reference-kernel time around this solve


# ---------------------------------------------------------------------------
# machine speed
#
# Other tenants of a shared machine change its speed by up to a factor of two,
# for a fraction of a second up to tens of seconds at a time, so wall times
# of one run differ from the next by a fifth or more.  The timed metrics are
# therefore given in units of a reference kernel ("ref"): a solve's time
# divided by the kernel's time while and around it.  A profiling timer runs
# the kernel every PROBE_EVERY_S of CPU time, also in the middle of a solve;
# its runs are taken out of the solve's time.  The kernel is pure-Python
# exact rational arithmetic, like the solver, and does not touch miqpcert.

PROBE_EVERY_S = 0.05
PROBE_WINDOW = 3  # probes taken on each side of a solve, besides those inside it


def reference_kernel() -> None:
    """Gauss-Jordan elimination of a fixed 6 x 6 rational system."""
    n = 6
    rows = [
        [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] + [Fraction(i + 1)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]


class SpeedProbe:
    """Timed runs of the reference kernel: (start, seconds) in time order."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self, *_signal) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.at.append(start)
        self.took.append(time.perf_counter() - start)

    def start(self) -> None:
        """Probe every PROBE_EVERY_S of CPU time from now on."""
        signal.signal(signal.SIGPROF, self.probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def recent(self) -> float:
        """Median kernel time of the latest probes."""
        return statistics.median(self.took[-2 * PROBE_WINDOW :])

    def inside(self, start: float, end: float) -> float:
        """Seconds the probes that started in [start, end) took."""
        return sum(self.took[bisect.bisect_left(self.at, start) : bisect.bisect_left(self.at, end)])

    def around(self, start: float, end: float) -> float:
        """Median kernel time of the probes in [start, end) and of the
        PROBE_WINDOW probes on each side."""
        lo = max(0, bisect.bisect_left(self.at, start) - PROBE_WINDOW)
        hi = bisect.bisect_left(self.at, end) + PROBE_WINDOW
        return statistics.median(self.took[lo:hi])


class Api:
    """miqpcert as imported from this checkout.  Calls go through the package
    namespace, so a traced run reaches the wrappers installed there."""

    def __init__(self) -> None:
        self.pkg = importlib.import_module("miqpcert")
        if Path(self.pkg.__file__).resolve().parent != REPO / "src" / "miqpcert":
            raise ImportError(f"miqpcert imported from {self.pkg.__file__}, not from this checkout")
        self.cache = self.pkg.h_to_v  # the lru_cache object, kept for cache_clear / cache_info
        # Internal errors a small instance can raise today: the certifier's own
        # invariant checks, the decomposition's fiber cap (ValueError) and the
        # kernel exceptions that leak out (NegativeCurvature, Unbounded,
        # EmptyFeasibleSet, ConeNotPointed are ValueErrors), and internal asserts.
        self.internal_errors = (self.pkg.CertifierError, ValueError, ArithmeticError, AssertionError)


def import_api() -> Api:
    for name in [m for m in sys.modules if m == "miqpcert" or m.startswith("miqpcert.")]:
        del sys.modules[name]
    return Api()


def set_up(workload: Workload, cases: list[Case]) -> tuple[Api, float]:
    """Import miqpcert afresh and parse the corpus, plus one warm-up solve for
    a warm workload.  Returns the library and the seconds it took."""
    start = time.perf_counter()
    api = import_api()
    instances = [api.pkg.parse_instance(case.text) for case in cases]
    if workload.warm:
        api.pkg.find_certificate(instances[0])
    return api, time.perf_counter() - start


def solve_one(api: Api, index: int, case: Case, first_pass: bool, budget_s: float) -> Sample:
    start = time.perf_counter()
    cert_text = error = None
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            cert = api.pkg.find_certificate(api.pkg.parse_instance(case.text))
            if cert is not None:
                cert_text = api.pkg.serialize_certificate(cert)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        outcome = "infeasible" if cert is None else cert.trace.branch
    except SolveTimeout:
        outcome, cert_text = "timeout", None
    except api.internal_errors as exc:
        outcome, cert_text, error = "error", None, f"{type(exc).__name__}: {exc}"
    return Sample(index, first_pass, outcome, start, time.perf_counter() - start, cert_text, error)


def run_passes(
    workload: Workload, cases: list[Case], budget_ref: float, seconds: float
) -> tuple[Api, list[Sample], float, list[float]]:
    """Closed loop: the whole corpus once, then again until `seconds` of
    solving have passed.  The library is set up afresh SETUP_REPEATS times,
    spread evenly over the solving time, so that set-up times sample more than
    one stretch of the machine's speed.  Returns the last library, the
    samples (each net of probes and with its reference-kernel time), the
    solving wall time and the set-up times."""
    samples: list[Sample] = []
    setup: list[float] = []
    probe = SpeedProbe()
    probe.probe()
    solving = 0.0
    index, first_pass = 0, True
    timed_out: set[int] = set()  # solving these again would only measure the budget
    while first_pass or solving < seconds:
        if index == len(cases):
            if len(timed_out) == len(cases):
                break
            index, first_pass = 0, False
        if len(setup) < SETUP_REPEATS and solving >= seconds * len(setup) / SETUP_REPEATS:
            probe.stop()
            api, took = set_up(workload, cases)
            gc.collect()  # the previous library's module cycles, so that memory does not grow with each set-up
            setup.append(took)
            probe.start()
        if index not in timed_out:
            start = time.perf_counter()
            if not workload.warm:
                api.cache.cache_clear()
            samples.append(solve_one(api, index, cases[index], first_pass, budget_ref * probe.recent()))
            solving += time.perf_counter() - start
            if samples[-1].outcome == "timeout":
                timed_out.add(index)
        index += 1
    probe.stop()
    probe.probe()
    for s in samples:
        end = s.start + s.seconds
        s.seconds -= probe.inside(s.start, end)
        s.ref_s = probe.around(s.start, end)
    return api, samples, solving, setup


def run_traced(
    api: Api, workload: Workload, cases: list[Case], budget_ref: float
) -> tuple[Tracer, list[Sample], list[Sample]]:
    """One pass in which each instance is solved untraced and then traced, so
    that drift in machine speed falls on both sides of the overhead ratio."""
    tracer = Tracer()
    tracer.wrap_layers()
    untraced: list[Sample] = []
    traced: list[Sample] = []
    hits = misses = 0
    probe = SpeedProbe()
    for index, case in enumerate(cases):
        probe.probe()  # between solves only, so that no layer's self time holds a probe
        budget_s = budget_ref * probe.recent()
        if not workload.warm:
            api.cache.cache_clear()
        untraced.append(solve_one(api, index, case, True, budget_s))
        if not workload.warm:
            api.cache.cache_clear()
        before = api.cache.cache_info()
        tracer.install()
        span = tracer.begin(index)
        try:
            traced.append(solve_one(api, index, case, True, budget_s))
        finally:
            tracer.end(span)
            tracer.uninstall()
        after = api.cache.cache_info()
        hits += after.hits - before.hits
        misses += after.misses - before.misses
    tracer.counts["polyhedra.h_to_v.hits"] += hits
    tracer.counts["polyhedra.h_to_v.misses"] += misses
    return tracer, untraced, traced


# ---------------------------------------------------------------------------
# correctness gate (never timed)


def check(api: Api, cases: list[Case], samples: list[Sample]) -> list[str]:
    """Every problem found: wrong verdicts and certificates that fail."""
    problems = []
    oracle: dict[int, bool] = {}
    for s in samples:
        if s.outcome in ("timeout", "error"):
            continue
        case = cases[s.case]
        feasible = s.cert_text is not None
        if feasible:
            cert = api.pkg.parse_certificate(s.cert_text)
            inst = api.pkg.parse_instance(case.text)
            report = api.pkg.verify_certificate(inst, cert.point)
            if api.pkg.serialize_certificate(cert) != s.cert_text:
                problems.append(f"case {s.case}: certificate does not round-trip")
            if not report.ok or report.size.bits != cert.size.bits:
                problems.append(f"case {s.case}: certificate fails verification")
        if case.expected is not None and feasible != case.expected:
            problems.append(f"case {s.case}: verdict {feasible}, exhaustive cut count says {case.expected}")
        if case.oracle_box is not None:
            if s.case not in oracle:
                boxed = api.pkg.parse_instance(case.oracle_text or case.text)
                oracle[s.case] = api.pkg.brute_force_feasibility(boxed, case.oracle_box).feasible
            says = oracle[s.case]
            if case.one_sided and says and not feasible:
                problems.append(f"case {s.case}: infeasible, but the oracle finds a point in the box")
            if not case.one_sided and says != feasible:
                problems.append(f"case {s.case}: verdict {feasible}, oracle says {says}")
    return problems


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest whole percentile
    (or 99.9) that leaves at least ten samples beyond it; the maximum when
    there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], q, n - rank
    return ordered[-1], 100.0, 0


def interquartile_geomean(values: list[float]) -> float:
    """Geometric mean of the values between the first and the third quartile.
    Like the median it ignores both tails, but it averages half the corpus
    instead of reading one rank, where solve times climb steeply."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.geometric_mean(ordered[quarter : len(ordered) - quarter])


def outcome_counts(samples: list[Sample]) -> Counter[str]:
    counts = Counter(s.outcome for s in samples)
    return Counter({o: counts[o] for o in OUTCOMES})


def per_instance(samples: list[Sample], value) -> list[float]:
    """One value per corpus instance: the median over that instance's solves.
    A run ends part-way through a pass, so the number of solves differs
    between instances and with the order; the least of them would drop with
    that number, the median does not and ignores one slowed solve."""
    by_case: dict[int, list[float]] = {}
    for s in samples:
        by_case.setdefault(s.case, []).append(value(s))
    return [statistics.median(values) for values in by_case.values()]


def end_to_end(
    api: Api, workload: Workload, cases: list[Case], samples: list[Sample], wall: float, setup: list[float]
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """The end-to-end metrics, timed ones in units of the reference kernel.
    Latencies take one value per instance, the median of its passes; throughput
    is that of the first pass, which solves each instance once."""
    first = [s for s in samples if s.first_pass]
    counts = outcome_counts(first)
    fails = counts["timeout"] + counts["error"]
    verdicts = len(first) - fails
    ref = per_instance(samples, lambda s: s.seconds / s.ref_s)
    raw = per_instance(samples, lambda s: s.seconds)
    tail_ref, tail_q, beyond = tail(ref)
    ratios = []
    for s in first:
        if s.cert_text is not None:
            inst = api.pkg.parse_instance(cases[s.case].text)
            ratios.append(api.pkg.parse_certificate(s.cert_text).size.bits / inst.bit_size.bits)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "solve_mid_ref": (interquartile_geomean(ref), "ref"),
        "solve_tail_ref": (tail_ref, "ref"),
        "solves_per_kref": (verdicts / sum(s.seconds / s.ref_s for s in first) * 1e3, "1/kref"),
        "verdict_frac": (verdicts / len(first), "fraction"),
        "cert_bits_ratio_max": (max(ratios, default=0.0), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    kernel_ms = statistics.median(s.ref_s for s in samples) * 1e3
    notes = [
        f"solves: {len(samples)} in {wall:.2f} s timed wall; {len(first)} instances, each solved "
        f"{len(samples) / len(first):.2f} times on average",
        f"1 ref = one reference-kernel run, median {kernel_ms:.4f} ms in this run",
        f"solve_mid_ref: geometric mean over the middle half of {len(ref)} instances; "
        f"their median is {statistics.median(ref):.4f} ref",
        f"solve_tail_ref is p{tail_q:g}: {beyond} of {len(ref)} instances beyond it",
        f"wall time: p50 {statistics.median(raw) * 1e3:.3f} ms, p{tail_q:g} {tail(raw)[0] * 1e3:.3f} ms, "
        f"{verdicts / sum(s.seconds for s in first):.2f} solves/s over the first pass",
        f"fail_frac: {fails}/{len(first)} = {fails / len(first):.4f} (timeouts + internal errors, first pass)",
        "outcomes (first pass): " + " ".join(f"{o}={counts[o]}" for o in OUTCOMES),
        f"setup_s over {len(setup)} set-ups: " + " ".join(f"{t:.4f}" for t in setup),
        f"cert_bits_ratio_max over {len(ratios)} feasible first-pass instances",
    ]
    notes += [f"error on case {s.case}: {s.error}" for s in first if s.error]
    notes.append(baseline_note(workload, samples, counts))
    return metrics, notes


def baseline_note(workload: Workload, samples: list[Sample], counts: Counter[str]) -> str:
    """This run's wall times next to the roadmap's re-anchor measurements."""
    if workload.name == "maxcut5_sweep":
        mean_ms = statistics.fmean(s.seconds for s in samples) * 1e3
        return f"baseline: {mean_ms:.2f} ms per solve (mean) vs {REANCHOR_MAXCUT_MS} ms re-anchor"
    if workload.name == "boxed_cli":
        first = sum(s.seconds for s in samples if s.first_pass)
        return f"baseline: first pass of the 500-instance corpus in {first:.2f} s vs {REANCHOR_BOXED_S_PER_500} s re-anchor"
    scale = 300 / sum(counts.values())
    mine = " ".join(f"{o}={counts[o] * scale:.0f}" for o in REANCHOR_UNBOUNDED_MIX)
    theirs = " ".join(f"{o}={n}" for o, n in REANCHOR_UNBOUNDED_MIX.items())
    return f"baseline: branch mix per 300: {mine} vs re-anchor {theirs} (other corpus, 20 s budget)"


PER_LAYER_FUNCTIONS = {
    # function: which of calls / self_s to report
    "linalg.solve_linear_system": ("calls", "self_s"),
    "linalg.rank": ("calls", "self_s"),
    "polyhedra.h_to_v": ("calls", "self_s"),
    "polyhedra.polytope_hull": ("calls", "self_s"),
    "qp.qp_global_min": ("calls", "self_s"),
    "qp.min_quadratic_on_cone_slice": ("calls", "self_s"),
    "milp.decompose_mixed_integer_set": ("calls", "self_s"),
    "milp.mip_point": ("calls", "self_s"),
    "cones.normalizing_hyperplane": ("calls", "self_s"),
    "cones.simple_cone_decomposition": ("calls", "self_s"),
    "certifier.bounded_window_search": ("calls", "self_s"),
    "certifier.linear_descent_step": ("calls",),
    "certifier.negative_ray_certificate": ("calls",),
    "certifier.verify_certificate": ("calls", "self_s"),
    "certifier.find_certificate": ("self_s",),
    "formats.parse_instance": ("self_s",),
    "formats.serialize_certificate": ("self_s",),
}

def per_layer(
    tracer: Tracer, samples: list[Sample], untraced: list[Sample], workload: Workload
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of the traced solves.  The traced wall time is the sum
    of their solve times; the untraced solves of the same instances give the
    tracing overhead."""
    traced_wall = sum(s.seconds for s in samples)
    untraced_wall = sum(s.seconds for s in untraced)
    self_s = tracer.self_times()
    calls = dict(zip(tracer.keys, tracer.calls))
    items = dict(zip(tracer.keys, tracer.items))
    metrics: dict[str, tuple[float, str]] = {}
    for fn, kinds in PER_LAYER_FUNCTIONS.items():
        for kind in kinds:
            metrics[f"{fn}.{kind}"] = (calls[fn], "count") if kind == "calls" else (self_s[fn], "s")
    hits, misses = tracer.counts["polyhedra.h_to_v.hits"], tracer.counts["polyhedra.h_to_v.misses"]
    built = tracer.counts["milp.fibers_built"]
    metrics["polyhedra.h_to_v.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["polyhedra.iter_orthant_parts.parts"] = (items["polyhedra.iter_orthant_parts"], "count")
    metrics["milp.fibers_built"] = (built, "count")
    metrics["milp.families"] = (tracer.counts["milp.families"], "count")
    metrics["milp.fiber_use_ratio"] = (tracer.counts["milp.fibers_touched"] / built if built else 0.0, "ratio")
    metrics["cones.pieces"] = (tracer.counts["cones.pieces"], "count")
    counts = outcome_counts(samples)
    for outcome in OUTCOMES:
        metrics[f"certifier.outcome.{outcome}"] = (counts[outcome], "count")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for key, seconds in self_s.items():
        layer = key.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    remainder = traced_wall - sum(layer_self.values())
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
        metrics[f"layer.{layer}.share"] = (layer_self[layer] / traced_wall, "fraction")
    metrics["trace.remainder_s"] = (remainder, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "fraction")

    inclusive = tracer.inclusive_times(("polyhedra.h_to_v", "qp.qp_global_min", "milp.decompose_mixed_integer_set",
                                        "certifier.bounded_window_search"))
    notes = [
        f"traced {len(samples)} solves: {tracer.calls[0]} root spans, {len(tracer.spans)} spans in all",
        f"outcome counts sum to {sum(counts.values())} of {len(samples)} attempted",
        "self-time shares: " + " ".join(f"{layer}={layer_self[layer] / traced_wall:.3f}" for layer in LAYERS)
        + f" remainder={remainder / traced_wall:.3f} (of {traced_wall:.2f} s traced wall)",
        "inclusive shares: " + " ".join(f"{k}={v / traced_wall:.3f}" for k, v in inclusive.items()),
        f"bench root span self time (part of the remainder): {self_s[ROOT]:.3f} s",
        prediction(workload.name, layer_self, inclusive, traced_wall),
    ]
    return metrics, notes


def prediction(name: str, layer_self: dict[str, float], inclusive: dict[str, float], wall: float) -> str:
    """Which layer should dominate each workload, from profiles taken while
    sizing it, and whether it did."""
    if name == "maxcut5_sweep":
        claim, held = "milp is the largest layer by self time", max(layer_self, key=layer_self.get) == "milp"
    elif name == "boxed_cli":
        claim = "polyhedra.h_to_v (with the linear algebra it calls) takes the largest inclusive share"
        held = max(inclusive, key=inclusive.get) == "polyhedra.h_to_v"
    else:
        claim = "qp + polyhedra + the linear algebra under them take most of the self time"
        held = (layer_self["qp"] + layer_self["polyhedra"] + layer_self["linalg"]) / wall > 0.5
    return f"prediction {'held' if held else 'DEVIATION'}: {claim}"


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--budget-ref", required=True, type=float, help="per-instance budget in reference-kernel runs"
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (REPO / "src" / "miqpcert" / "__init__.py").is_file():
        print(f"error: no miqpcert sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    signal.signal(signal.SIGALRM, _alarm)

    cases = workload.corpus(args.seed)
    if args.trace == 0:
        api, samples, wall, setup = run_passes(workload, cases, args.budget_ref, args.seconds)
        metrics, notes = end_to_end(api, workload, cases, samples, wall, setup)
    else:
        api, _ = set_up(workload, cases)
        tracer, untraced, traced = run_traced(api, workload, cases, args.budget_ref)
        tracer.write_spans(SPAN_DIR / f"spans_{workload.name}_seed{args.seed}.tsv.gz")
        metrics, notes = per_layer(tracer, traced, untraced, workload)
        samples = untraced + traced
    problems = check(api, cases, samples)
    failed = sum(1 for s in samples if s.outcome in ("timeout", "error"))

    print(f"# {workload.name} seed={args.seed} trace={args.trace} budget={args.budget_ref:g} ref: {workload.why}")
    for index, why in workload.set_aside.items():
        notes.append(f"set aside: generator instance {index} of corpus seed {workload.corpus_seed} ({why})")
    for line in notes + problems:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
