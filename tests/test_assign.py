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
    """Smallest sorted list of positive pairs among all matchings tying for the best total."""
    b = np.asarray(mat, dtype=float)
    rows, cols = b.shape
    if rows <= cols:
        injections = [tuple((i, c) for i, c in enumerate(p))
                      for p in itertools.permutations(range(cols), rows)]
    else:
        injections = [tuple((r, j) for j, r in enumerate(p))
                      for p in itertools.permutations(range(rows), cols)]
    positive = [tuple(sorted(p for p in inj if b[p] > 0)) for inj in injections]
    totals = [sum(b[p] for p in pairs) for pairs in positive]
    best = max(totals)
    return min(pairs for pairs, total in zip(positive, totals) if abs(total - best) <= 1e-12)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([2, 3, 5]))
@settings(max_examples=300, deadline=None)
def test_lexicographic_tie_break(rows, cols, seed, levels):
    # one level below zero and one at it: neither is ever matched
    rng = np.random.default_rng(seed)
    mat = rng.integers(-1, levels, size=(rows, cols)) / (levels - 1)
    assert solve_max_assignment(mat).pairs == _lex_oracle(mat)


def test_totals_match_scipy_at_larger_sizes():
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment

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


def test_zero_matrix_matches_nothing():
    # only positive pairs are matched, so a zero column loses nothing to the tie-break
    assert solve_max_assignment([[0, 1], [0, 1]]) == Matching(((0, 1),), 1.0)
    assert solve_max_assignment([[0, 0], [1, 1]]) == Matching(((1, 0),), 1.0)
    assert solve_max_assignment(np.zeros((2, 3))) == Matching((), 0.0)
    # at 150 x 150 the tie-break's integer costs would exceed any float
    for shape in ((40, 50), (50, 40), (150, 150)):
        assert solve_max_assignment(np.zeros(shape)) == Matching((), 0.0)


@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 2, 4]))
@settings(max_examples=200, deadline=None)
def test_non_positive_matrices_match_brute_force(rows, cols, seed, levels):
    # no entry is positive: zeros (and -0.0) pair no more than negative entries do
    rng = np.random.default_rng(seed)
    mat = -rng.integers(0, levels, size=(rows, cols)) / levels
    assert solve_max_assignment(mat) == brute_force_assignment(mat) == Matching((), 0.0)


def test_zero_matrix_answers_at_once():
    start = time.perf_counter()
    m = solve_max_assignment(np.zeros((150, 150)))
    assert time.perf_counter() - start < 0.01
    assert m == Matching((), 0.0)


def test_block_ties_pick_diagonal():
    m = solve_max_assignment(np.kron(np.eye(10), np.ones((4, 4))))
    assert m.pairs == tuple((i, i) for i in range(40))
    assert m.total_score == 40.0


def test_negative_entries_never_matched():
    m = solve_max_assignment([[-1.0, -2.0], [-3.0, -4.0]])
    assert m == Matching((), 0.0)
    mixed = solve_max_assignment([[-1.0, 0.5], [0.25, -2.0]])
    assert mixed == Matching(((0, 1), (1, 0)), 0.75)
    # zeros beside negatives pair no more than the negatives do
    assert solve_max_assignment([[0.0, -1.0], [-1.0, 0.0]]) == Matching((), 0.0)
    assert solve_max_assignment([[-1.0, 0.0, 0.5]]) == Matching(((0, 2),), 0.5)


@st.composite
def structured_matrices(draw, max_side=6):
    """A tie-heavy, sparse or block-diagonal matrix of few levels, rows and columns shuffled.

    Blocks give several components of positive entries, interleaved by the shuffle.
    """
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 2, 3]))
    mat = rng.integers(-1, levels + 1, size=(rows, cols)) / levels
    kind = draw(st.sampled_from(["ties", "sparse", "blocks"]))
    if kind == "sparse":
        mat *= rng.random((rows, cols)) < 0.3
    elif kind == "blocks":
        row_block = np.sort(rng.integers(0, 3, rows))
        col_block = np.sort(rng.integers(0, 3, cols))
        mat *= row_block[:, None] == col_block[None, :]
    return mat[rng.permutation(rows)][:, rng.permutation(cols)]


@given(structured_matrices())
@settings(max_examples=150, deadline=None)
def test_structured_matrices_match_brute_force(mat):
    for m in (mat, mat.T):
        assert solve_max_assignment(m) == brute_force_assignment(m)
    assert solve_max_assignment([[0, 1], [0, 1]]).pairs == ((0, 1),)


@given(st.lists(st.integers(1, 4), min_size=2, max_size=6),
       st.lists(st.integers(-3, 3), min_size=6, max_size=6))
@settings(max_examples=100, deadline=None)
def test_near_ties_resolve_alike_on_every_path(levels, nudges):
    # entries a few 1e-13 apart are tied whether their row is settled alone, its column
    # alone, or the row sits in a larger component that goes through the Hungarian passes
    row = np.array(levels) / 4 + np.array(nudges[:len(levels)]) * 1e-13
    best = levels.index(max(levels))
    k = len(levels)
    # row 1 shares column 0 with row 0 but is worth far more at its own column k
    joined = np.zeros((2, k + 1))
    joined[0, :k] = row
    joined[1, 0], joined[1, k] = 0.01, 2.0
    cases = [(row[None, :], ((0, best),)), (joined, ((0, best), (1, k)))]
    for mat, want in cases:
        assert solve_max_assignment(mat).pairs == want
        assert solve_max_assignment(mat.T).pairs == tuple((c, r) for r, c in want)
        for m in (mat, mat.T):
            assert solve_max_assignment(m) == brute_force_assignment(m)


@given(st.lists(structured_matrices(max_side=5), min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_block_diagonal_solves_each_block(blocks, seed):
    # the blocks of a block-diagonal matrix are solved as if each stood alone, however
    # their rows and columns are interleaved
    rows = np.cumsum([0] + [b.shape[0] for b in blocks])
    cols = np.cumsum([0] + [b.shape[1] for b in blocks])
    mat = np.zeros((rows[-1], cols[-1]))
    for b, r, c in zip(blocks, rows, cols):
        mat[r:r + b.shape[0], c:c + b.shape[1]] = b
    # interleave the blocks' rows, and their columns, keeping each block's own order
    rng = np.random.default_rng(seed)
    row_of, col_of = (np.argsort(rng.permutation(np.repeat(np.arange(len(blocks)), np.diff(e))),
                                 kind="stable") for e in (rows, cols))
    shuffled = np.empty_like(mat)
    shuffled[np.ix_(row_of, col_of)] = mat
    # the tie-break favours rows, so the transpose has answers of its own
    want = tuple(sorted((int(row_of[r + i]), int(col_of[c + j]))
                        for b, r, c in zip(blocks, rows, cols)
                        for i, j in brute_force_assignment(b).pairs))
    want_t = tuple(sorted((int(col_of[c + i]), int(row_of[r + j]))
                          for b, r, c in zip(blocks, rows, cols)
                          for i, j in brute_force_assignment(b.T).pairs))
    assert solve_max_assignment(shuffled).pairs == want
    assert solve_max_assignment(shuffled.T).pairs == want_t
