"""Reference Clopper-Pearson bound: the bisection that evaluates the guarded
binomial log pmf at every halving, kept as the oracle the package's loop,
which hoists what does not depend on p out of it, is pinned to, bit for
bit."""

import numpy as np


def log_binom_table(n: int):
    """(n, outcomes 0..n as floats, log C(n, i) over them)."""
    i = np.arange(n + 1, dtype=np.float64)
    lg = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n + 1, dtype=np.float64)))))
    return n, i, lg[n] - lg - lg[::-1]


def log_binom_pmf(table, p: float) -> np.ndarray:
    """log pmf of Binomial(n, p) over the outcomes of a log_binom_table(n),
    or of a slice of its columns, with the i = 0 and i = n terms guarded."""
    n, i, log_nck = table
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = i * (np.log(p) if p > 0 else -np.inf)
        lq = (n - i) * (np.log1p(-p) if p < 1 else -np.inf)
    return log_nck + np.where(i == 0, 0.0, lp) + np.where(i == n, 0.0, lq)


def clopper_pearson_lower(successes: int, trials: int, confidence: float) -> float:
    """Solve P(Binomial(trials, p) >= successes) = 1 - confidence for p by
    bisection to 1e-12, summing the tail's pmf in log space."""
    if successes == 0:
        return 0.0
    alpha = 1.0 - confidence
    if successes == trials:
        return alpha ** (1.0 / trials)
    n, i, log_nck = log_binom_table(trials)
    tail = (n, i[successes:], log_nck[successes:])
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lp = log_binom_pmf(tail, mid)
        m = lp.max()
        if float(np.exp(m) * np.exp(lp - m).sum()) < alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)
