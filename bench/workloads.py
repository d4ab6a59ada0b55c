"""Fixed seeded corpora for the benchmark workloads.

Each workload's instances come from its generator at a fixed corpus seed; the
run's ``--seed`` sets the order in which they are solved.  Independent corpora
of a few hundred instances differ by a tenth (boxed) to a quarter (unbounded:
solve times span 0.6 ms to over 20 s) in median solve time, and the maximum
certificate-to-instance size ratio moves by a third between boxed corpora.
Those differences would hide any regression the bounds are meant to catch,
so the instance set stays fixed, as on the roadmap's fixed corpora.

Every operation of a run must end with a verdict, and a run must end within
180 seconds, so an instance that takes longer than that cannot stay in a
timed corpus.  Such an instance is set aside by its generator index and named
in every run's output (``Workload.set_aside``); it stays the target of the
long-tail work.

The benchmark writes every instance in miqpcert's text format itself, so the
program under test sees only its input files.  Each case also carries what the
correctness gate needs: the known verdict (max-cut, by exhaustive cut
counting) or the box for the brute-force oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Case:
    text: str
    expected: bool | None = None  # verdict known without the program
    oracle_box: int | None = None  # brute-force radius for the oracle check
    oracle_text: str | None = None  # P cut to the oracle box when P itself is not boxed

    @property
    def one_sided(self) -> bool:
        """The oracle sees a subset of P: its "feasible" implies P's, nothing more."""
        return self.oracle_text is not None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: Callable[[random.Random, int], list[Case]]
    corpus_seed: int
    corpus_size: int  # instances generated; one pass solves all but those set aside, and outcome counts cover it
    warm: bool  # keep the h_to_v cache across instances, after one warm-up solve in set-up
    set_aside: dict[int, str] = field(default_factory=dict)  # generator index: why it is left out

    def corpus(self, seed: int) -> list[Case]:
        generated = self.generator(random.Random(self.corpus_seed), self.corpus_size)
        cases = [case for i, case in enumerate(generated) if i not in self.set_aside]
        random.Random(seed).shuffle(cases)
        return cases


def instance_text(p: int, h, c, d: int, rows, rhs) -> str:
    n = len(c)
    lines = [f"{n} {p}"]
    lines += [" ".join(map(str, row)) for row in h]
    lines += [" ".join(map(str, c)), str(d), str(len(rows))]
    lines += [" ".join(map(str, row)) for row in rows]
    if rows:
        lines.append(" ".join(map(str, rhs)))
    return "\n".join(lines) + "\n"


def _box_rows(n: int, radius: int, lower: int) -> tuple[list[list[int]], list[int]]:
    """Rows x_i <= radius and -x_i <= lower, interleaved per coordinate."""
    rows, rhs = [], []
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        rows += [unit, [-u for u in unit]]
        rhs += [radius, lower]
    return rows, rhs


def _symmetric(rng: random.Random, n: int, lo: int, hi: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return m


# ---------------------------------------------------------------------------
# maxcut5_sweep


MAXCUT_VERTICES = 5
MAXCUT_KS = range(0, 11)
_PAIRS = [(i, j) for i in range(MAXCUT_VERTICES) for j in range(i + 1, MAXCUT_VERTICES)]


def max_cut_value(edges: list[tuple[int, int]]) -> int:
    return max(
        sum(1 for a, b in edges if ((mask >> a) & 1) != ((mask >> b) & 1))
        for mask in range(2**MAXCUT_VERTICES)
    )


def maxcut_text(edges: list[tuple[int, int]], k: int) -> str:
    """k - sum over edges of (x_i + x_j - 2 x_i x_j) <= 0 over x in {0, 1}^5."""
    n = MAXCUT_VERTICES
    h = [[0] * n for _ in range(n)]
    c = [0] * n
    for u, v in edges:
        h[u][v] += 1
        h[v][u] += 1
        c[u] -= 1
        c[v] -= 1
    rows, rhs = _box_rows(n, 1, 0)
    return instance_text(n, h, c, k, rows, rhs)


def maxcut_sweep(rng: random.Random, size: int) -> list[Case]:
    """Distinct labeled graphs on five vertices, each swept over every k."""
    masks = rng.sample(range(2 ** len(_PAIRS)), size // len(MAXCUT_KS))
    cases = []
    for mask in masks:
        edges = [e for i, e in enumerate(_PAIRS) if (mask >> i) & 1]
        best = max_cut_value(edges)
        cases += [Case(maxcut_text(edges, k), expected=best >= k) for k in MAXCUT_KS]
    return cases


# ---------------------------------------------------------------------------
# boxed_cli: the acceptance-criterion-1 generator, call for call


def boxed_corpus(rng: random.Random, size: int) -> list[Case]:
    cases = []
    for _ in range(size):
        n = rng.randint(1, 3)
        p = rng.randint(0, n)
        h = _symmetric(rng, n, -5, 5)
        c = [rng.randint(-5, 5) for _ in range(n)]
        d = rng.randint(-5, 5)
        box = rng.randint(1, 4)
        rows, rhs = _box_rows(n, box, box)
        for _ in range(rng.randint(0, 2)):
            rows.append([rng.randint(-3, 3) for _ in range(n)])
            rhs.append(rng.randint(-3, 5))
        cases.append(Case(instance_text(p, h, c, d, rows, rhs), oracle_box=box))
    return cases


# ---------------------------------------------------------------------------
# unbounded_budget


UNBOUNDED_ORACLE_BOX = 2


def unbounded_corpus(rng: random.Random, size: int) -> list[Case]:
    """n <= 3, few random rows and no box: unbounded and non-pointed parts."""
    cases = []
    for _ in range(size):
        n = rng.randint(1, 3)
        p = rng.randint(0, n)
        h = _symmetric(rng, n, -3, 3)
        c = [rng.randint(-3, 3) for _ in range(n)]
        d = rng.randint(-3, 3)
        m = rng.randint(1, n + 1)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        box_rows, box_rhs = _box_rows(n, UNBOUNDED_ORACLE_BOX, UNBOUNDED_ORACLE_BOX)
        cases.append(
            Case(
                instance_text(p, h, c, d, rows, rhs),
                oracle_box=UNBOUNDED_ORACLE_BOX,
                oracle_text=instance_text(p, h, c, d, rows + box_rows, rhs + box_rhs),
            )
        )
    return cases


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "maxcut5_sweep",
            "warm h_to_v cache, 5-vertex graphs x every k: decomposition and search bound, the control for kernel changes",
            maxcut_sweep,
            corpus_seed=1,
            corpus_size=55 * len(MAXCUT_KS),
            warm=True,
        ),
        Workload(
            "boxed_cli",
            "criterion-1 corpus, h_to_v cleared per instance as in one CLI process per file: kernel bound",
            boxed_corpus,
            corpus_seed=20240817,
            corpus_size=500,
            warm=False,
        ),
        Workload(
            "unbounded_budget",
            "unboxed n<=3 fuzz corpus under a per-instance budget: orthant splits, cones, ray branches, the long tail",
            unbounded_corpus,
            corpus_seed=1,
            corpus_size=120,
            warm=False,
            set_aside={
                114: "n=3, p=0, two rows: 180 s to a negative-ray certificate on a 2-core machine, "
                "past the 180 s a run may take",
            },
        ),
    )
}
