import random
from fractions import Fraction

import pytest

from reeb_bubble.coefficients import (
    CoefficientRing,
    ExactMatrix,
    RingMismatchError,
    field_reduce,
    integer_elementary_divisors,
    integer_kernel_basis,
    smith_normal_form,
    solve_in_span,
    sparse_column_reduction,
)

Z = CoefficientRing.integers()
Q = CoefficientRing.rationals()
F2 = CoefficientRing.prime_field(2)


def det(rows):
    """Exact determinant via fraction-free-ish Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    sign = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def test_snf_zero_matrix():
    res = smith_normal_form(ExactMatrix(Z, [[0]]))
    assert res.D.to_rows() == [[0]]
    assert res.divisors == ()


def test_snf_identity():
    res = smith_normal_form(ExactMatrix.identity(Z, 3))
    assert res.divisors == (1, 1, 1)


def test_snf_worked_2x2():
    # gcd of entries is 2 and |det| = 20, so the chain must be (2, 10)
    A = ExactMatrix(Z, [[2, 4], [-2, 6]])
    res = smith_normal_form(A)
    assert res.divisors == (2, 10)
    assert res.U @ A @ res.V == res.D


def test_snf_empty_shapes():
    res = smith_normal_form(ExactMatrix(Z, [], cols=3))
    assert res.divisors == ()
    assert res.D.rows == 0 and res.D.cols == 3
    res = smith_normal_form(ExactMatrix(Z, [[], []], cols=0))
    assert res.divisors == ()


@pytest.mark.parametrize("seed", range(25))
def test_snf_round_trip_property(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 8), rng.randint(1, 8)
    A = ExactMatrix(Z, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], n)
    res = smith_normal_form(A)
    assert res.U @ A @ res.V == res.D
    assert abs(det(res.U.to_rows())) == 1
    assert abs(det(res.V.to_rows())) == 1
    for i in range(res.D.rows):
        for j in range(res.D.cols):
            if i != j:
                assert res.D.entry(i, j) == 0
    for a, b in zip(res.divisors, res.divisors[1:]):
        assert a > 0 and b % a == 0
    # rank over Q equals the count of nonzero divisors
    AQ = ExactMatrix(Q, A.to_rows(), n)
    assert field_reduce(AQ).rank == len(res.divisors)


@pytest.mark.parametrize("seed", range(15))
def test_sparse_divisors_agree_with_dense(seed):
    rng = random.Random(1000 + seed)
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    rows = [
        [rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(n)]
        for _ in range(m)
    ]
    dense = smith_normal_form(ExactMatrix(Z, rows, n)).divisors
    assert integer_elementary_divisors(rows, n) == dense
    assert integer_elementary_divisors(_dict_rows(rows), n) == dense


def test_field_reduce_identity_over_q():
    red = field_reduce(ExactMatrix.identity(Q, 2))
    assert red.rank == 2
    assert red.kernel == ()


def test_field_reduce_proportional_rows():
    red = field_reduce(ExactMatrix(Q, [[1, 2], [2, 4]]))
    assert red.rank == 1
    assert red.kernel == ((Fraction(-2), Fraction(1)),)


def test_field_reduce_mod_two():
    red = field_reduce(ExactMatrix(F2, [[1, 1], [1, 1]]))
    assert red.rank == 1
    assert red.kernel == ((1, 1),)


def test_field_reduce_rejects_integers():
    with pytest.raises(RingMismatchError):
        field_reduce(ExactMatrix(Z, [[1]]))


def test_field_reduce_kernel_annihilates():
    rng = random.Random(7)
    for _ in range(10):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = ExactMatrix(Q, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)], n)
        red = field_reduce(A)
        assert red.rank + len(red.kernel) == n
        for vec in red.kernel:
            for row in A.data:
                assert sum(a * b for a, b in zip(row, vec)) == 0


@pytest.mark.parametrize("seed", range(15))
def test_integer_kernel_is_saturated_and_annihilates(seed):
    rng = random.Random(2000 + seed)
    m, n = rng.randint(1, 6), rng.randint(2, 7)
    rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
    basis = integer_kernel_basis(rows, n)
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    # dimension matches the rational kernel (a saturated lattice basis)
    red = field_reduce(ExactMatrix(Q, rows, n))
    assert len(basis) == n - red.rank
    if basis:
        # membership test: integer combinations come back with exact coordinates
        combo = [0] * n
        weights = [rng.randint(-3, 3) for _ in basis]
        for w, vec in zip(weights, basis):
            for i, v in enumerate(vec):
                combo[i] += w * v
        coords = solve_in_span(basis, combo)
        assert coords is not None
        rebuilt = [0] * n
        for w, vec in zip(coords, basis):
            for i, v in enumerate(vec):
                rebuilt[i] += w * v
        assert rebuilt == combo


def _dict_rows(rows):
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def _check_column_reduction(rows, n):
    # dense rows and dict rows of the same matrix give the same reduction,
    # and neither input is modified
    sparse = _dict_rows(rows)
    before = ([list(r) for r in rows], [dict(r) for r in sparse])
    red = sparse_column_reduction(rows, n)
    from_dicts = sparse_column_reduction(sparse, n)
    assert (from_dicts.rank, from_dicts.kernel_cols, from_dicts.kernel_dual_rows) == (
        red.rank, red.kernel_cols, red.kernel_dual_rows
    )
    assert (rows, sparse) == before
    rank = field_reduce(ExactMatrix(Q, rows, n)).rank
    assert red.rank == rank
    assert len(red.kernel_cols) == len(red.kernel_dual_rows) == n - rank
    for col in red.kernel_cols:
        for row in rows:
            assert sum(row[j] * v for j, v in col.items()) == 0
    # integral duals with dual·kernel = identity: an integral vector of the
    # kernel has integral coordinates, so the basis is saturated
    for i, dual in enumerate(red.kernel_dual_rows):
        for j, col in enumerate(red.kernel_cols):
            assert sum(v * col.get(t, 0) for t, v in dual.items()) == (i == j)


def test_sparse_column_reduction_on_non_unit_sparse_matrices():
    rng = random.Random(3100)
    for _ in range(50):
        m, n = rng.randint(20, 40), rng.randint(20, 40)
        density = rng.uniform(0.1, 0.3)
        rows = [
            [rng.choice((-1, 1)) * rng.randint(1, 5) if rng.random() < density else 0
             for _ in range(n)]
            for _ in range(m)
        ]
        for i in rng.sample(range(m), rng.randint(0, 3)):
            rows[i] = [0] * n
        for j in rng.sample(range(n), rng.randint(0, 3)):
            for row in rows:
                row[j] = 0
        _check_column_reduction(rows, n)


def test_sparse_column_reduction_on_small_non_unit_matrices():
    # small matrices with large entries switch the pivot column inside a
    # row, so rows of the abandoned column must be queued again
    rng = random.Random(3200)
    values = (0, 0, 0, 1, -1, 2, -2, 3, -3, 5, 7)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        _check_column_reduction(rows, n)
        sparse = _dict_rows(rows)
        divisors = smith_normal_form(ExactMatrix(Z, rows, n)).divisors
        assert integer_elementary_divisors(rows, n) == divisors
        assert integer_elementary_divisors(sparse, n) == divisors
        assert sparse == _dict_rows(rows)


def test_solve_in_span_positive_and_negative():
    cols = [[2, 0], [0, 3]]
    assert solve_in_span(cols, [4, 3]) == [2, 1]
    assert solve_in_span(cols, [1, 0]) is None
    assert solve_in_span([], [0, 0]) == []
    assert solve_in_span([], [1, 0]) is None


def test_solve_in_span_mixed_lattice():
    cols = [[2, 1, 0], [0, 3, 1]]
    target = [2 * 5 + 0 * -2, 1 * 5 + 3 * -2, 0 * 5 + 1 * -2]
    assert solve_in_span(cols, target) == [5, -2]


def test_ring_labels_and_conversion():
    assert Z.label == "Z" and Q.label == "Q" and F2.label == "Z/2"
    assert F2.convert(-3) == 1
    assert Q.convert(2) == Fraction(2)
    with pytest.raises(ValueError):
        CoefficientRing.prime_field(6)
