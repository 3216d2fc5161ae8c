"""Cohort mid-rank percentiles, on one code path.

Within each cohort (typically a publication or application year),
percentile = (count strictly below + 0.5 * count equal) / size, so any
cohort's percentiles average to exactly 0.5; this strips year effects
from citation counts and path-count centralities. midranks ranks arrays
(evaluate_k2's exact SPNP), and midrank_percentiles runs it on mappings
(the Cite3 and forward-citation percentiles). numpy is bound lazily
(cornrate._lazy_module): `predict k1` executes this module but ranks
nothing, so it never imports numpy.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping, TypeVar

from . import _lazy_module
from .core_data import CornrateError

np = _lazy_module("numpy")

K = TypeVar("K", bound=Hashable)

# Every integer of magnitude below 2**53 is a float64, so equal keys below it are equal values.
EXACT_FLOAT_LIMIT = 2.0 ** 53


def _float_key(value) -> float:
    """value as a float64; an int that overflows float64 becomes inf of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def midranks(values: np.ndarray, cohort: np.ndarray) -> np.ndarray:
    """The mid-rank percentile of each value within its cohort: (number
    below + 0.5 * number equal) / cohort size.

    values (floats, or Python ints of any size in an object array, as the
    exact SPNP is, floats among them or not) are sorted by their float64,
    which is monotone in the number because int -> float64 rounds
    correctly; an int that overflows float64 sorts as inf of its sign
    (_float_key). Each run of equal floats of magnitude EXACT_FLOAT_LIMIT
    or more (inf included) in one cohort is then sorted by the exact values.
    A NaN has no rank: it is a CornrateError.
    """
    if not values.size:
        return np.zeros(0)
    try:
        key = values.astype(np.float64)
    except OverflowError:
        key = np.array([_float_key(v) for v in values.tolist()])
    if np.isnan(key).any():
        raise CornrateError("cannot rank a NaN value")
    # By value, then stably by cohort; the order within a tie does not change a percentile.
    order = np.argsort(key)
    order = order[np.argsort(cohort[order], kind="stable")]
    key, cohort = key[order], cohort[order]
    # tie[k]: sorted entries k and k + 1 are equal and in one cohort.
    tie = (key[1:] == key[:-1]) & (cohort[1:] == cohort[:-1])
    unsettled = np.flatnonzero(np.diff(tie & (np.abs(key[1:]) >= EXACT_FLOAT_LIMIT),
                                       prepend=False, append=False))
    for lo, hi in unsettled.reshape(-1, 2).tolist():
        run = sorted(order[lo:hi + 1].tolist(), key=values.__getitem__)
        order[lo:hi + 1] = run
        tie[lo:hi] = [values[a] == values[b] for a, b in zip(run, run[1:])]
    start = np.flatnonzero(np.concatenate(([True], ~tie)))   # first entry of each tie group
    stop = np.append(start[1:], values.size)
    first = np.flatnonzero(np.concatenate(([True], cohort[1:] != cohort[:-1])))
    size = np.diff(np.append(first, values.size))
    group_cohort = np.searchsorted(first, start, side="right") - 1
    i, j = start - first[group_cohort], stop - first[group_cohort]
    percentile = np.empty(values.size)
    percentile[order] = np.repeat((i + 0.5 * (j - i)) / size[group_cohort], stop - start)
    return percentile


def midrank_percentiles(values: Mapping[K, float],
                        cohort_of: Mapping[K, Hashable]) -> dict[K, float]:
    """midranks of a mapping: each key's percentile among the keys of its cohort_of
    cohort. Cohorts are numbered by first appearance, so any hashable names one."""
    numbers: dict[Hashable, int] = {}
    cohort = np.array([numbers.setdefault(cohort_of[k], len(numbers)) for k in values], np.int64)
    percentile = midranks(np.array(list(values.values()), dtype=object), cohort)
    return dict(zip(values, percentile.tolist()))
