import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import brute_force_assignment
from movingseg.assign import Matching, solve_max_assignment


def test_identity_benefit():
    m = solve_max_assignment([[1, 0], [0, 1]])
    assert m.pairs == ((0, 0), (1, 1))
    assert m.total_score == 2.0


def test_cross_benefit():
    m = solve_max_assignment([[0.5, 0.9], [0.8, 0.4]])
    assert m.pairs == ((0, 1), (1, 0))
    assert m.total_score == pytest.approx(1.7, abs=1e-15)


def test_rectangular_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        mat = rng.random((2, 3))
        s = solve_max_assignment(mat)
        assert len({r for r, _ in s.pairs}) == len(s.pairs)
        assert len({c for _, c in s.pairs}) == len(s.pairs)
        assert s.total_score == pytest.approx(
            brute_force_assignment(mat).total_score, abs=1e-12)


def test_brute_force_hand_cases():
    assert brute_force_assignment([[0.7]]).total_score == 0.7
    m = brute_force_assignment(np.eye(3))
    assert m.pairs == ((0, 0), (1, 1), (2, 2))
    assert m.total_score == 3.0


def test_brute_force_size_limit():
    with pytest.raises(ValueError):
        brute_force_assignment(np.zeros((9, 9)))


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        solve_max_assignment([[np.nan]])
    with pytest.raises(ValueError):
        solve_max_assignment([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        brute_force_assignment([[np.nan]])


def test_degenerate_shapes():
    assert solve_max_assignment(np.zeros((0, 3))) == Matching((), 0.0)
    assert solve_max_assignment(np.zeros((3, 0))) == Matching((), 0.0)
    assert brute_force_assignment(np.zeros((0, 0))) == Matching((), 0.0)


def test_optimality_many_random():
    rng = np.random.default_rng(123)
    for k in range(1000):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        mat = rng.random((rows, cols))
        if k % 4 == 0:
            mat = (mat * 3).round() / 3.0   # force ties
        got = solve_max_assignment(mat).total_score
        want = brute_force_assignment(mat).total_score
        assert abs(got - want) < 1e-12


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        mat = rng.random((4, 5))        # distinct entries: unique optimum
        base = solve_max_assignment(mat)
        prow = rng.permutation(4)
        pcol = rng.permutation(5)
        permuted = mat[np.ix_(prow, pcol)]
        got = solve_max_assignment(permuted)
        expect = sorted((int(np.where(prow == r)[0][0]), int(np.where(pcol == c)[0][0]))
                        for r, c in base.pairs)
        assert list(got.pairs) == expect
        assert got.total_score == pytest.approx(base.total_score, abs=1e-12)


def test_scale_invariance_of_argmax():
    rng = np.random.default_rng(6)
    for _ in range(100):
        mat = rng.random((5, 4))
        base = solve_max_assignment(mat)
        for factor in (0.5, 2.0, 10.0):
            scaled = solve_max_assignment(mat * factor)
            assert scaled.pairs == base.pairs
            assert scaled.total_score == pytest.approx(base.total_score * factor, rel=1e-12)


def _lex_oracle(mat):
    """Smallest pair list among all maximal matchings tying for the best total."""
    b = np.asarray(mat, dtype=float)
    rows, cols = b.shape
    bc = np.maximum(b, 0.0)
    if rows <= cols:
        injections = [tuple((i, c) for i, c in enumerate(p))
                      for p in itertools.permutations(range(cols), rows)]
    else:
        injections = [tuple(sorted((r, j) for j, r in enumerate(p)))
                      for p in itertools.permutations(range(rows), cols)]
    best = max(sum(bc[p] for p in inj) for inj in injections)
    tied = [inj for inj in injections if abs(sum(bc[p] for p in inj) - best) <= 1e-12]
    pick = min(tied)
    return tuple((r, c) for r, c in pick if b[r, c] >= 0)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([2, 3, 5]))
@settings(max_examples=300, deadline=None)
def test_lexicographic_tie_break(rows, cols, seed, levels):
    # one level below zero: those entries are never matched
    rng = np.random.default_rng(seed)
    mat = rng.integers(-1, levels, size=(rows, cols)) / (levels - 1)
    assert solve_max_assignment(mat).pairs == _lex_oracle(mat)


def test_totals_match_scipy_at_larger_sizes():
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(2024)
    for k in range(120):
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 40))
        mat = rng.random((rows, cols))
        if k % 3 == 0:
            mat = (mat * 3).round() / 3.0      # tie-heavy
        got = solve_max_assignment(mat).total_score
        ri, ci = linear_sum_assignment(mat, maximize=True)
        assert got == pytest.approx(float(mat[ri, ci].sum()), abs=1e-9)


def test_zero_matrix_pins_diagonal():
    # zero-score pairs may be matched; callers treat them like unmatched items
    m = solve_max_assignment(np.zeros((2, 3)))
    assert m.pairs == ((0, 0), (1, 1))
    assert m.total_score == 0.0
    # every pair ties; at 150 x 150 the tie-break's integer costs exceed any float
    for shape in ((40, 50), (50, 40), (150, 150)):
        m = solve_max_assignment(np.zeros(shape))
        assert m.pairs == tuple((i, i) for i in range(min(shape)))
        assert m.total_score == 0.0


@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 2, 4]))
@settings(max_examples=200, deadline=None)
def test_non_positive_matrices_match_brute_force(rows, cols, seed, levels):
    # every matching is worth 0: zeros (and -0.0) may pair, negative entries never do
    rng = np.random.default_rng(seed)
    mat = -rng.integers(0, levels, size=(rows, cols)) / levels
    assert solve_max_assignment(mat) == brute_force_assignment(mat)


def test_zero_matrix_answers_at_once():
    start = time.perf_counter()
    m = solve_max_assignment(np.zeros((150, 150)))
    assert time.perf_counter() - start < 0.01
    assert m.pairs == tuple((i, i) for i in range(150))


def test_block_ties_pick_diagonal():
    m = solve_max_assignment(np.kron(np.eye(10), np.ones((4, 4))))
    assert m.pairs == tuple((i, i) for i in range(40))
    assert m.total_score == 40.0


def test_negative_entries_never_matched():
    m = solve_max_assignment([[-1.0, -2.0], [-3.0, -4.0]])
    assert m.pairs == ()
    assert m.total_score == 0.0
    mixed = solve_max_assignment([[-1.0, 0.5], [0.25, -2.0]])
    assert mixed.pairs == ((0, 1), (1, 0))
    assert mixed.total_score == 0.75
