"""Optimal bipartite assignment over rectangular benefit matrices.

`solve_max_assignment` maximizes the summed benefit of a one-to-one matching
between rows and columns.  Among the optimal matchings it returns the one with
the smallest sorted (row, col) pair list, so repeated runs over identical
inputs always produce the identical matching.  Negative entries are never
matched; zero-benefit pairs may appear in the result and callers treat them
the same as unmatched items.

The solver runs one Hungarian routine twice.  Pass 1, on float costs, gives
dual potentials; by complementary slackness the optimal matchings are exactly
those that use only tight edges and cover every larger-side vertex with a
positive dual.  A smaller-side vertex left with one tight edge is pinned to
it.  Pass 2 solves the rest over exact Python integers, on the R rows and C
columns left, indexed from 0, with W = C + 1.  Reading each row as one base-W
digit, its column or C when unmatched, a tight pair (r, c) costs
-(C - c) * W**(R - 1 - r), less a bonus above all digit terms if it covers a
required vertex; a non-tight pair costs more than any tight matching.  The
minimum is the smallest digit string among the optimal matchings, which is
the smallest sorted pair list.  A matrix with no positive entry needs neither
pass: every matching is worth 0, so the answer is the diagonal less its
negative entries.

The tests check the solver against an exhaustive oracle that shares nothing
with it beyond the input contract, ``brute_force_assignment`` in
``tests/dense_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_INF = float("inf")


@dataclass(frozen=True)
class Matching:
    """One-to-one row/col pairs plus the summed benefit of the matched entries."""

    pairs: tuple[tuple[int, int], ...]
    total_score: float


def _validated(scores) -> np.ndarray:
    b = np.asarray(scores, dtype=float)
    if b.ndim != 2:
        raise ValueError(f"score matrix must be 2-D, got shape {b.shape}")
    if b.size and not np.isfinite(b).all():
        raise ValueError("score matrix contains non-finite entries")
    return b


def _hungarian_min(cost: list[list[int]] | list[list[float]]
                   ) -> tuple[list[int], list[int | float], list[int | float]]:
    """Min-cost perfect-on-rows assignment for an n x m cost table, n <= m.

    Costs may be floats or Python ints.  The potentials start at int 0, so int
    costs stay exact at any size and float costs give what float zeros would.

    Returns (col_to_row, u, v), 1-based with index 0 unused; col_to_row[j] == 0
    means column j is unmatched.  The potentials satisfy u[i] + v[j] <= cost
    everywhere with equality on matched pairs.
    """
    n = len(cost)
    m = len(cost[0]) if n else 0
    u = [0] * (n + 1)
    v = [0] * (m + 1)
    col_to_row = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        col_to_row[0] = i
        j0 = 0
        minv = [_INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = col_to_row[j0]
            row = cost[i0 - 1]
            delta = _INF
            j1 = 0
            u_i0 = u[i0]
            for j in range(1, m + 1):
                if not used[j]:
                    cur = row[j - 1] - u_i0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[col_to_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if col_to_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            col_to_row[j0] = col_to_row[j1]
            j0 = j1
    return col_to_row, u, v


def solve_max_assignment(scores) -> Matching:
    """Maximum-benefit one-to-one matching of a (possibly rectangular) matrix.

    Raises ValueError on non-finite entries.  Zero-degenerate shapes produce
    the empty matching.
    """
    b = _validated(scores)
    n_rows, n_cols = b.shape
    if n_rows == 0 or n_cols == 0:
        return Matching((), 0.0)
    if not (b > 0.0).any():
        diagonal = range(min(n_rows, n_cols))
        return Matching(tuple((i, i) for i in diagonal if b[i, i] >= 0.0), 0.0)
    bc = np.maximum(b, 0.0)
    scale = float(bc.max())
    eps = 1e-12 * max(1.0, scale)

    # pass 1 on the smaller side as rows; "small"/"large" name the two sides
    transposed = n_rows > n_cols
    solved = bc.T if transposed else bc
    _, u, v = _hungarian_min((scale - solved).tolist())
    small_dual = scale - np.array(u[1:], dtype=float)   # benefit-form duals
    large_dual = -np.array(v[1:], dtype=float)
    tight = small_dual[:, None] + large_dual[None, :] - solved <= eps
    required = large_dual > eps

    # forced pairs lie in every optimal matching (np.unique guards against rounding)
    small_to_large = np.full(len(small_dual), -1)
    large_open = np.ones(len(large_dual), dtype=bool)
    live = tight.copy()
    while len(forced := np.flatnonzero(live.sum(axis=1) == 1)):
        ends, first = np.unique(live[forced].argmax(axis=1), return_index=True)
        small_to_large[forced[first]] = ends
        large_open[ends] = False
        live[:, ends] = False               # which also empties the forced rows

    # pass 2 in local indices, which keep the order of rows and columns
    small = np.flatnonzero(small_to_large < 0)
    large = np.flatnonzero(large_open)
    if len(small):
        n_digits, n_values = (len(large), len(small)) if transposed else (len(small), len(large))
        w = n_values + 1
        big = w ** (n_digits + 1)
        place = [w ** p for p in range(n_digits - 1, -1, -1)]
        gain = [[(n_values - x) * pd for x in range(n_values)] for pd in place]
        if transposed:
            gain = list(zip(*gain))         # indexed [small][large] like `tight`
        bonus = [big * r for r in required[large].tolist()]
        miss = big * (n_digits + n_values + 2)
        table = [[-g - bb if is_tight else miss for is_tight, g, bb in zip(row, gains, bonus)]
                 for row, gains in zip(tight[np.ix_(small, large)].tolist(), gain)]
        col_to_row = np.array(_hungarian_min(table)[0][1:])
        hit = col_to_row > 0
        small_to_large[small[col_to_row[hit] - 1]] = large[hit]

    pairs = sorted((end, i) if transposed else (i, end)
                   for i, end in enumerate(small_to_large.tolist()))
    kept = tuple((r, c) for r, c in pairs if b[r, c] >= 0.0)
    total = float(sum(b[r, c] for r, c in kept))
    return Matching(kept, total)
