"""Performance statistics for benchmark runs: effort/time aggregates,
speedup against a sequential reference, the Mann-Whitney U test (exact by
enumeration for small samples, tie-corrected normal approximation
otherwise) and the summary table rows.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .records import RecordRow

#: Largest per-sample size for which the exact permutation distribution is
#: enumerated; C(16, 8) = 12870 splits is still cheap.
EXACT_LIMIT = 8


def mean_std(sample) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (n-1 denominator);
    a singleton has deviation 0 by convention."""
    xs = [float(v) for v in sample]
    if not xs:
        raise ValueError("sample is empty")
    n = len(xs)
    mean = sum(xs) / n
    if n == 1:
        return mean, 0.0
    try:
        var = sum((x - mean) ** 2 for x in xs) / (n - 1)
    except OverflowError:  # a deviation past about 1e154 squares beyond the float range
        var = math.inf
    return mean, math.sqrt(var)


def speedup(sequential, parallel) -> float:
    """Ratio of mean sequential to mean parallel execution time. Rounding
    happens only at presentation (two decimals in `hydrocm report`)."""
    seq_mean, _ = mean_std(sequential)
    par_mean, _ = mean_std(parallel)
    if par_mean == 0:
        raise ValueError("parallel mean time is zero; speedup undefined")
    return seq_mean / par_mean


class MannWhitneyResult(NamedTuple):
    U: float
    p: float
    method: str


def _midranks(pooled: list[float]) -> list[float]:
    n = len(pooled)
    order = sorted(range(n), key=pooled.__getitem__)
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def mann_whitney_u(a, b) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test.

    U is the statistic of the first sample (rank-sum form with midranks
    for ties). For sizes up to EXACT_LIMIT each, the two-sided p-value is
    computed by full enumeration of all rank splits of the pooled data;
    beyond that a normal approximation with tie-corrected variance and
    continuity correction is used. Swapping the samples maps U to
    n_a*n_b - U and leaves p unchanged.
    """
    xs, ys = [float(v) for v in a], [float(v) for v in b]
    if not xs or not ys:
        raise ValueError("both samples must be non-empty")
    n_a, n_b = len(xs), len(ys)
    n = n_a + n_b
    ranks = _midranks(xs + ys)
    r_a = sum(ranks[:n_a])
    u = r_a - n_a * (n_a + 1) / 2.0
    mu = n_a * n_b / 2.0

    if n_a <= EXACT_LIMIT and n_b <= EXACT_LIMIT:
        d_obs = abs(u - mu)
        offset = n_a * (n_a + 1) / 2.0
        count = 0
        total = 0
        for combo in itertools.combinations(range(n), n_a):
            u_perm = sum(ranks[i] for i in combo) - offset
            if abs(u_perm - mu) >= d_obs:
                count += 1
            total += 1
        return MannWhitneyResult(u, count / total, "exact")

    tie_counts = []
    for _, group in itertools.groupby(sorted(xs + ys)):
        tie_counts.append(len(list(group)))
    tie_term = sum(t**3 - t for t in tie_counts)
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return MannWhitneyResult(u, 1.0, "normal_approx")  # all values tied
    z = max(0.0, abs(u - mu) - 0.5) / math.sqrt(var)  # continuity correction
    p = min(1.0, math.erfc(z / math.sqrt(2.0)))
    return MannWhitneyResult(u, p, "normal_approx")


#: The aggregate columns of every summary table, in order.
SUMMARY_COLUMNS = ("runs", "successes", "success_rate", "eval_mean", "eval_std", "time_mean", "time_std")


def summary_cells(rows: list[RecordRow]) -> list[str]:
    """The `SUMMARY_COLUMNS` cells of one experiment's record rows in the
    style of the benchmark tables: means and deviations over the solved
    runs only, '*' when none solved, with the success rate alongside.
    `hydrocm run` prefixes them with the setup and problem, `hydrocm
    report` with the file's label."""
    if not rows:
        raise ValueError("need at least one run")
    solved = [r for r in rows if r.success]
    cells = [str(len(rows)), str(len(solved)), f"{len(solved) / len(rows)}"]
    if not solved:
        return cells + ["*"] * 4
    for sample in ([r.evaluations for r in solved], [r.elapsed_ms for r in solved]):
        cells.extend(f"{v}" for v in mean_std(sample))
    return cells
