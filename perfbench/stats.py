"""Order statistics the benchmark reports.

Percentiles are Harrell–Davis estimates: a weighted mean of every order
statistic, with weights from the Beta((n+1)q, (n+1)(1-q)) distribution.
Cell latencies are multimodal (cheap and expensive workloads in one
matrix), and a single order statistic sitting in the gap between two
modes jumps from run to run; the weighted estimate does not.  A
percentile is only reported when at least :data:`MIN_TAIL` samples rank
beyond it, so a tail figure never rests on one or two outliers.

A sweep's median cell is estimated over cells, not over samples
(:func:`cell_median`).  Its cells are a fixed population, each run once a
pass, and in graph-sweep the median falls three cells below a gap between
a cheap and a dear cluster.  Over pooled samples the Harrell–Davis weights
reach across that gap by an amount that depends on the sample count, so a
run of two passes and a run of three read 20 % apart.  Over the cells'
median samples the count is the number of cells, fixed by the matrix, and
each cell's median drops a slow pass.
"""

from __future__ import annotations

import math
from statistics import median
from typing import Mapping, Sequence

import numpy as np

#: Samples that must rank strictly beyond a reported percentile.
MIN_TAIL = 10
#: Integration points per order-statistic interval for the Beta weights.
_GRID = 64


def _check_tail(n: int, q: float) -> None:
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    beyond = n - max(1, math.ceil(q * n))
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_TAIL}"
        )


def harrell_davis_weights(n: int, q: float) -> np.ndarray:
    """Weight of each of ``n`` order statistics in the ``q`` estimate:
    the Beta((n+1)q, (n+1)(1-q)) mass over ((i-1)/n, i/n]."""
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    x = (np.arange(n * _GRID) + 0.5) / (n * _GRID)
    log_pdf = ((a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
               - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    w = np.exp(log_pdf).reshape(n, _GRID).sum(axis=1)
    return w / w.sum()


def percentile(samples: Sequence[float], q: float) -> float:
    """Harrell–Davis ``q``-quantile (``0 < q < 1``) of ``samples``.

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL` samples rank
    above the nearest-rank ``q``-quantile.
    """
    _check_tail(len(samples), q)
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    return float(harrell_davis_weights(len(xs), q) @ xs)


def cell_median(by_cell: Mapping[str, Sequence[float]]) -> float:
    """Harrell–Davis median over cells of each cell's median sample."""
    return percentile([median(xs) for xs in by_cell.values()], 0.5)
