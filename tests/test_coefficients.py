import random
import time
from fractions import Fraction

import pytest
from divisor_reference import determinantal_divisors, modular_lattice_divisors
from field_reference import field_rank, field_row_reduce
from helpers import check_split, transpose
from hypothesis import given, settings
from hypothesis import strategies as st

from reeb_bubble.coefficients import (
    MODULUS_BOUND,
    CoefficientRing,
    RingMismatchError,
    field_reduce,
    integer_elementary_divisors,
    rank_over,
    smith_normal_form,
    sparse_column_reduction,
)

Z = CoefficientRing.integers()
Q = CoefficientRing.rationals()
F2 = CoefficientRing.prime_field(2)
PRIMES = (2, 3, 5, 7, 11)


def test_snf_zero_matrix():
    assert integer_elementary_divisors(transpose([[0]], 1)) == ()
    assert determinantal_divisors([[0]], 1) == ()
    # the residue step of a zero block is the modulus lattice itself
    assert smith_normal_form(transpose([[0]], 1), 6) == (6,)


def test_snf_identity():
    identity = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert integer_elementary_divisors(transpose(identity, 3)) == (1, 1, 1)
    assert smith_normal_form(transpose(identity, 3), 12) == (1, 1, 1)


def test_snf_worked_2x2():
    # gcd of entries is 2 and |det| = 20, so the chain must be (2, 10)
    rows = [[2, 4], [-2, 6]]
    assert integer_elementary_divisors(transpose(rows, 2)) == (2, 10)
    assert determinantal_divisors(rows, 2) == (2, 10)
    # the lattice contains 20·Z^2, so the residue step modulo 20 agrees
    assert smith_normal_form(transpose(rows, 2), 20) == (2, 10)


def test_snf_empty_shapes():
    assert integer_elementary_divisors(transpose([], 3)) == ()
    assert integer_elementary_divisors(transpose([[], []], 0)) == ()
    assert smith_normal_form(transpose([], 3), 4) == (4, 4, 4)
    assert smith_normal_form(transpose([], 0), 4) == ()


@pytest.mark.parametrize("seed", range(25))
def test_snf_round_trip_property(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 8), rng.randint(1, 8)
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    divisors = integer_elementary_divisors(transpose(rows, n))
    assert divisors == determinantal_divisors(rows, n)
    for a, b in zip(divisors, divisors[1:]):
        assert a > 0 and b % a == 0
    # rank over Q equals the count of nonzero divisors
    assert field_rank(Q, rows, n) == len(divisors)
    # a nonsingular square matrix's lattice contains |det|·Z^n
    if m == n and len(divisors) == n:
        det = 1
        for d in divisors:
            det *= d
        assert smith_normal_form(transpose(rows, n), det) == divisors


@pytest.mark.parametrize("seed", range(15))
def test_sparse_divisors_agree_with_dense(seed):
    rng = random.Random(1000 + seed)
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    rows = [
        [rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(n)]
        for _ in range(m)
    ]
    reference = determinantal_divisors(rows, n)
    assert integer_elementary_divisors(transpose(rows, n)) == reference


_ENTRIES = st.integers(-12, 12) | st.sampled_from((0, 0, 1, -1))


@st.composite
def _small_matrices(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=m, max_size=m))
    return rows, n


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_small_matrices())
def test_divisors_match_determinantal_reference(matrix):
    rows, n = matrix
    divisors = integer_elementary_divisors(transpose(rows, n))
    assert divisors == determinantal_divisors(rows, n)
    # entries up to 12 make rows wait and cut: kernel saturation, dual rows
    # and field ranks are checked under the Euclid steps too
    _check_column_reduction(rows, n)


def test_residue_step_terminates_on_unreduced_hermite_cycles():
    # [[1, 1], [0, 1]] is its own unreduced Hermite form and its transpose's:
    # an alternation without the reduction above the diagonal never ends
    for modulus in (1, 2, 3, 12):
        assert smith_normal_form(transpose([[1, 1], [0, 1]], 2), modulus) == (1, 1)
        assert smith_normal_form(transpose([[1, 0], [1, 1]], 2), modulus) == (1, 1)
    values = (0, 1, 2, 3, 4, 6)
    for a in values[1:]:
        for b in values:
            for c in values[1:]:
                for modulus in (a * c, 2 * a * c, 12):
                    for rows in ([[a, b], [0, c]], [[a, 0], [b, c]]):
                        assert smith_normal_form(transpose(rows, 2), modulus) == (
                            modular_lattice_divisors(rows, 2, modulus)
                        ), (rows, modulus)
    rng = random.Random(3300)
    for _ in range(100):
        n = rng.randint(1, 4)
        modulus = rng.choice((4, 6, 8, 12, 30, 36))
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        assert smith_normal_form(transpose(rows, n), modulus) == modular_lattice_divisors(
            rows, n, modulus
        ), (rows, modulus)


def test_field_reduce_identity_over_q():
    rank, _, kernel = field_row_reduce(Q, [[1, 0], [0, 1]], 2)
    assert rank == 2
    assert kernel == ()
    assert field_reduce(Q, transpose([{0: 1}, {1: 1}], 2)) == 2


def test_field_reduce_proportional_rows():
    rank, _, kernel = field_row_reduce(Q, [[1, 2], [2, 4]], 2)
    assert rank == 1
    assert kernel == ((Fraction(-2), Fraction(1)),)
    assert field_reduce(Q, transpose([{0: 1, 1: 2}, {0: 2, 1: 4}], 2)) == 1


def test_field_reduce_mod_two():
    rank, _, kernel = field_row_reduce(F2, [[1, 1], [1, 1]], 2)
    assert rank == 1
    assert kernel == ((1, 1),)
    assert field_reduce(F2, transpose([{0: 1, 1: 1}, {0: 1, 1: 1}], 2)) == 1


def test_field_reduce_rejects_integers():
    with pytest.raises(RingMismatchError):
        field_reduce(Z, transpose([{0: 1}], 1))


def test_field_reduce_kernel_annihilates():
    rng = random.Random(7)
    for _ in range(10):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        rank, _, kernel = field_row_reduce(Q, rows, n)
        assert rank + len(kernel) == n
        for vec in kernel:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


@pytest.mark.parametrize("seed", range(15))
def test_integer_kernel_is_saturated_and_annihilates(seed):
    rng = random.Random(2000 + seed)
    m, n = rng.randint(1, 6), rng.randint(2, 7)
    rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
    red = sparse_column_reduction(transpose(rows, n))
    basis = []
    for col in red.kernel_cols:
        basis.append([col.get(j, 0) for j in range(n)])
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    # dimension matches the rational kernel (a saturated lattice basis)
    assert len(basis) == n - field_rank(Q, rows, n)
    # integral duals with dual·kernel = identity: an integral kernel vector
    # has integral coordinates along the basis
    for i, dual in enumerate(red.kernel_dual_rows):
        for j, vec in enumerate(basis):
            assert sum(v * vec[t] for t, v in dual.items()) == (i == j)


def _check_column_reduction(rows, n):
    # the reduction leaves its input columns as they were; returns it
    columns = transpose(rows, n)
    before = [dict(c) for c in columns]
    red = sparse_column_reduction(columns)
    assert columns == before
    rank = field_rank(Q, rows, n)
    assert red.rank == rank
    check_split(red)
    # field_reduce agrees on rows of fractions: row i divided by i + 2
    fractions = [[Fraction(v, i + 2) for v in row] for i, row in enumerate(rows)]
    assert field_reduce(Q, transpose(fractions, n)) == rank
    # the divisors form a chain, one per pivot, and each prime field sees
    # exactly the divisors it does not divide
    assert len(red.divisors) == rank
    for a, b in zip(red.divisors, red.divisors[1:]):
        assert a > 0 and b % a == 0
    for p in PRIMES:
        Fp = CoefficientRing.prime_field(p)
        rank_p = field_rank(Fp, rows, n)
        assert rank_p == sum(1 for d in red.divisors if d % p), p
        residues = [[v % p for v in row] for row in rows]
        assert field_reduce(Fp, transpose(residues, n)) == rank_p, p
    assert len(red.kernel_cols) == len(red.kernel_dual_rows) == n - rank
    for col in red.kernel_cols:
        for row in rows:
            assert sum(row[j] * v for j, v in col.items()) == 0
    # integral duals with dual·kernel = identity: an integral vector of the
    # kernel has integral coordinates, so the basis is saturated
    for i, dual in enumerate(red.kernel_dual_rows):
        for j, col in enumerate(red.kernel_cols):
            assert sum(v * col.get(t, 0) for t, v in dual.items()) == (i == j)
    return red


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
    # small matrices with large entries make several columns wait on one
    # row, and the cut's Euclid steps pass the pivot between them
    rng = random.Random(3200)
    values = (0, 0, 0, 1, -1, 2, -2, 3, -3, 5, 7)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        _check_column_reduction(rows, n)
        divisors = determinantal_divisors(rows, n)
        assert integer_elementary_divisors(transpose(rows, n)) == divisors


def test_sparse_column_reduction_cuts_waiting_rows():
    # neither 2 nor 3 is a unit, so both columns wait on row 0 and the cut
    # leaves one of them there: a pivot of gcd(2, 3) = 1
    red = sparse_column_reduction([{0: 2}, {0: 3}])
    assert red.divisors == (1,)
    check_split(red)
    (kernel,) = red.kernel_cols
    assert kernel in ({0: 3, 1: -2}, {0: -3, 1: 2})
    (dual,) = red.kernel_dual_rows
    assert sum(v * kernel.get(t, 0) for t, v in dual.items()) == 1
    # row 0 holds 4, 6 and 9: the pivot 4 leaves the remainders -2 and 1,
    # so the 9 column takes the pivot over, and the 4 column ends in the
    # kernel with the quotients it gave folded into its dual row
    red = _check_column_reduction([[4, 6, 9]], 3)
    assert red.divisors == (1,) and list(red.units) == [0]
    assert red.kernel_dual_rows == [{0: 1, 1: 2, 2: 2}, {1: 1}]
    # the same cut on the last of three rows: the cut columns move on to
    # row 1, wait there and are cut again, and one of them comes down to
    # row 0 as a unit, which the fourth column has waited on since the pass
    rows = [[1, 0, 1, 2], [0, 1, 1, 0], [4, 6, 9, 0]]
    red = _check_column_reduction(rows, 4)
    assert red.divisors == determinantal_divisors(rows, 4) == (1, 1, 1)
    assert list(red.units) == [2, 1, 0] and red.residue == []


def test_ring_labels_and_conversion():
    assert Z.label == "Z" and Q.label == "Q" and F2.label == "Z/2"
    assert F2.convert(-3) == 1
    assert Q.convert(2) == Fraction(2)
    with pytest.raises(ValueError):
        CoefficientRing.prime_field(6)


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 91])
def test_direct_construction_checks_the_modulus_is_prime(p):
    # every construction path, not only prime_field, refuses a composite
    with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
        CoefficientRing("Zp", p)
    with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
        CoefficientRing.prime_field(p)
    assert CoefficientRing("Zp", 97).label == "Z/97"


def test_a_large_prime_modulus_is_accepted_at_once():
    p = 2**61 - 1
    t0 = time.perf_counter()
    assert CoefficientRing.prime_field(p).label == f"Z/{p}"
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize(
    "p",
    [
        561,  # a Carmichael number
        2047,  # a strong pseudoprime to base 2
        3215031751,  # a strong pseudoprime to bases 2, 3, 5 and 7
        318665857834031151167461,  # a strong pseudoprime to the first 12 primes
        2**61 + 1,
    ],
)
def test_pseudoprimes_are_not_prime_moduli(p):
    with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
        CoefficientRing.prime_field(p)


def test_prime_moduli_agree_with_trial_division():
    for p in range(10**4):
        prime = p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1))
        try:
            CoefficientRing.prime_field(p)
        except ValueError:
            assert not prime, p
        else:
            assert prime, p


@pytest.mark.parametrize("p", [MODULUS_BOUND, 2**89 - 1, 7.0, True])
def test_a_modulus_past_the_bound_or_not_an_integer_is_refused(p):
    # the bound itself is a strong pseudoprime to every base the test uses
    with pytest.raises(ValueError, match=f"not an integer below the bound {MODULUS_BOUND}"):
        CoefficientRing.prime_field(p)


@pytest.mark.parametrize("seed", range(12))
def test_field_ranks_read_off_integral_divisors(seed):
    # U·diag·V with U, V unimodular keeps the divisors of the diagonal, here
    # with multiples of 2 and of 3 among them; the rank over Q is their
    # count and over Z/p the count of those prime to p, as field_reduce and
    # the row-reduction reference read it off the reduced matrix itself
    rng = random.Random(4200 + seed)
    rows, cols = rng.randint(3, 7), rng.randint(3, 7)
    rank = rng.randint(2, min(rows, cols))
    diag = [2 * rng.randint(1, 4), 3 * rng.randint(1, 4)]
    diag += [rng.choice((1, 1, 2, 3, 4, 5, 6, 9, 12)) for _ in range(rank - 2)]
    rng.shuffle(diag)
    matrix = [[diag[i] if i == j and i < rank else 0 for j in range(cols)] for i in range(rows)]
    for _ in range(3 * (rows + cols)):
        # a row operation and a column operation with unit determinant
        a, b = rng.sample(range(rows), 2)
        m = rng.choice((-2, -1, 1, 2))
        matrix[a] = [x + m * y for x, y in zip(matrix[a], matrix[b])]
        a, b = rng.sample(range(cols), 2)
        m = rng.choice((-2, -1, 1, 2))
        for row in matrix:
            row[a] += m * row[b]
    divisors = integer_elementary_divisors(transpose(matrix, cols))
    assert len(divisors) == rank
    assert any(d % 2 == 0 for d in divisors) and any(d % 3 == 0 for d in divisors)
    fractions = [[Fraction(v, i + 2) for v in row] for i, row in enumerate(matrix)]
    assert rank_over(Q, divisors) == field_reduce(Q, transpose(fractions, cols)) == rank
    for p in PRIMES:
        Fp = CoefficientRing.prime_field(p)
        residues = [[v % p for v in row] for row in matrix]
        expected = sum(1 for d in diag if d % p)
        assert rank_over(Fp, divisors) == field_reduce(Fp, transpose(residues, cols)) == expected, p
        assert field_rank(Fp, matrix, cols) == expected, p
