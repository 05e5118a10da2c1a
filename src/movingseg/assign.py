"""Optimal bipartite assignment over rectangular benefit matrices.

`solve_max_assignment` maximizes the summed benefit of a one-to-one matching
between rows and columns.  Only positive entries count: a matching's pairs
are its positive pairs, and among the maximum-total matchings the solver
returns the smallest sorted (row, col) pair list, so repeated runs over
identical inputs always produce the identical matching.  A matrix with no
positive entry gives the empty matching.

Under this rule the problem splits exactly along the connected components of
the positive entries, and the best pair list is the union of each
component's.  Entries within ``eps`` = 1e-12 * max(1, largest entry) of each
other count as tied throughout.  A component of one row takes its row's first
entry within ``eps`` of the row's maximum, one of a single column its column's
first, and a lone positive pair is both.  The remaining components are solved
together, on the union of their rows and columns, by one Hungarian routine
run twice.  Pass 1, on float costs, gives dual potentials; by complementary
slackness the optimal matchings are exactly those that use only tight edges
and cover every larger-side vertex with a positive dual.  A smaller-side
vertex left with one tight edge is pinned to it.  Pass 2 solves the rest over
exact Python integers, on the R rows and C columns left, indexed from 0, with
W = C + 1.  Reading each row as one base-W digit, its column if it is matched
to a positive entry and C otherwise, a tight pair (r, c) costs
-(C - c) * W**(R - 1 - r) if it is positive and 0 if not, less a bonus above
all digit terms if it covers a required vertex; a non-tight pair costs more
than any tight matching.  The minimum is the smallest digit string among the
optimal matchings, which is the smallest sorted list of positive pairs.

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

    Raises ValueError on non-finite entries.  Only positive entries are
    matched, so a matrix without one, of any shape, gives the empty matching.
    """
    b = _validated(scores)
    n_rows, n_cols = b.shape
    rows, cols = np.nonzero(b > 0.0)   # row-major, so each row's columns ascend
    if not len(rows):
        return Matching((), 0.0)
    row_deg = np.bincount(rows, minlength=n_rows)
    col_deg = np.bincount(cols, minlength=n_cols)
    shared_col, shared_row = col_deg[cols] > 1, row_deg[rows] > 1
    if (shared_col | shared_row).any():
        eps = 1e-12 * max(1.0, float(b.max()))
        # a component of one row has only columns of its own, and one of one column
        # only rows of its own; a lone pair is both and is settled with the rows
        one_row = (np.bincount(rows[shared_col], minlength=n_rows) == 0) & (row_deg > 0)
        one_col = (np.bincount(cols[shared_row], minlength=n_cols) == 0) & (col_deg > 1)
        # x.nonzero()[0] on these small 1-D arrays: np.flatnonzero's wrapper costs
        # several times the search
        star_rows, star_cols = one_row.nonzero()[0], one_col.nonzero()[0]
        # each takes its first positive entry within eps of its maximum
        row_to_col = np.full(n_rows, -1)
        row_to_col[star_rows] = _first_best(b[star_rows], eps, axis=1)
        row_to_col[_first_best(b[:, star_cols], eps, axis=0)] = star_cols
        rest = ~(one_row[rows] | one_col[cols])
        if rest.any():
            # the remaining components, solved together on their rows and columns
            sub_rows = np.bincount(rows[rest], minlength=n_rows).nonzero()[0]
            sub_cols = np.bincount(cols[rest], minlength=n_cols).nonzero()[0]
            r, c = _solve_components(b[np.ix_(sub_rows, sub_cols)], eps)
            row_to_col[sub_rows[r]] = sub_cols[c]
        rows = (row_to_col >= 0).nonzero()[0]
        cols = row_to_col[rows]
    pairs = tuple(zip(rows.tolist(), cols.tolist()))
    return Matching(pairs, float(sum(b[rows, cols].tolist())))


def _first_best(b: np.ndarray, eps: float, axis: int) -> np.ndarray:
    """Along ``axis``, the index of the first positive entry within ``eps`` of the maximum."""
    return ((b >= b.max(axis=axis, keepdims=True) - eps) & (b > 0.0)).argmax(axis=axis)


def _solve_components(b: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The smallest sorted list of positive pairs among the maximum-total matchings of
    ``b``, as arrays of rows and their columns, by the two passes of the module docstring;
    totals within ``eps`` of each other count as equal."""
    bc = np.maximum(b, 0.0)
    scale = float(bc.max())

    # pass 1 on the smaller side as rows; "small"/"large" name the two sides
    transposed = b.shape[0] > b.shape[1]
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
    while len(forced := (live.sum(axis=1) == 1).nonzero()[0]):
        ends, first = np.unique(live[forced].argmax(axis=1), return_index=True)
        small_to_large[forced[first]] = ends
        large_open[ends] = False
        live[:, ends] = False               # which also empties the forced rows

    # pass 2 in local indices, which keep the order of rows and columns
    small = (small_to_large < 0).nonzero()[0]
    large = large_open.nonzero()[0]
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
        # a tight pair that is not positive is worth what leaving its row unmatched is
        sub = np.ix_(small, large)
        table = [[-g * p - bb if is_tight else miss
                  for is_tight, p, g, bb in zip(row, positive, gains, bonus)]
                 for row, positive, gains in zip(tight[sub].tolist(),
                                                 (solved[sub] > 0.0).tolist(), gain)]
        col_to_row = np.array(_hungarian_min(table)[0][1:])
        hit = col_to_row > 0
        small_to_large[small[col_to_row[hit] - 1]] = large[hit]

    small_at = (small_to_large >= 0).nonzero()[0]
    r, c = small_at, small_to_large[small_at]
    if transposed:
        r, c = c, r
    keep = b[r, c] > 0.0
    return r[keep], c[keep]
