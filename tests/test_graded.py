"""Tests for graded modules, ring constructors and pairing invariants.

Expected ranks and products are the classical ones for spheres, tori and
their products, connected sums and wedges; each is small enough to check
by hand.
"""

import random
from collections import Counter

import pytest
from divisor_reference import determinantal_divisors
from field_reference import field_rank

from reeb_bubble.calculus import cohomology_ring_of_descriptor
from reeb_bubble.catalog import random_descriptors
from reeb_bubble.coefficients import CoefficientRing, RingMismatchError
from reeb_bubble.descriptor import BaseSpec, base_classes
from reeb_bubble.graded import (
    BasisElement,
    ConnSum,
    GradedModule,
    PairingInvariants,
    PresentedGradedRing,
    Product,
    Sphere,
    compare_invariants,
    connsum_ring,
    cps_cohomology,
    dimension,
    gcps_cohomology,
    pairing_invariants,
    sphere_ring,
    tensor_ring,
    validate_expr,
)

Z = CoefficientRing.integers()
Q = CoefficientRing.rationals()
Z2 = CoefficientRing.prime_field(2)
Z3 = CoefficientRing.prime_field(3)

TORUS = Product(Sphere(1), Sphere(1))
GENUS2 = ConnSum(TORUS, TORUS)
S2XS2 = Product(Sphere(2), Sphere(2))


def negate_basis_element(A, ident):
    """The ring A with basis element ``ident`` replaced by its negative."""

    def sign(*ids):
        return -1 if ids.count(ident) % 2 else 1

    products = {
        (ia, ib): {ic: sign(ia, ib, ic) * c for ic, c in vec.items()}
        for (ia, ib), vec in A.products.items()
    }
    return PresentedGradedRing(A.ring, A.top_degree, A.basis, products, check=False)


# ---------------------------------------------------------------------------
# graded modules
# ---------------------------------------------------------------------------


def test_module_basicache():
    m = GradedModule(Z, (1, 2, 1))
    assert m.max_degree == 2
    assert m.rank(1) == 2
    assert m.rank(7) == 0
    assert m.torsion_at(1) == ()
    assert m.total_rank == 4
    assert m.is_free


def test_module_torsion_normalization():
    m = GradedModule(Z, (1, 0, 1), ((), (2, 4)))
    assert m.torsion == ((), (2, 4), ())
    assert not m.is_free
    with pytest.raises(ValueError):
        GradedModule(Z, (1,), ((1,),))
    with pytest.raises(ValueError):
        GradedModule(Q, (1,), ((2,),))
    with pytest.raises(ValueError):
        GradedModule(Z, (1, -1))


# ---------------------------------------------------------------------------
# sphere rings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "k,ranks",
    [(1, (1, 1)), (2, (1, 0, 1)), (3, (1, 0, 0, 1))],
)
def test_sphere_ring_ranks(k, ranks):
    A = sphere_ring(k, Z)
    assert A.free_ranks() == ranks
    gen = A.basis[0]
    assert A.product(gen.id, gen.id) == {}


def test_sphere_ring_rejects_zero():
    with pytest.raises(ValueError):
        sphere_ring(0, Z)


# ---------------------------------------------------------------------------
# tensor rings
# ---------------------------------------------------------------------------


def test_torus_ring_table():
    A = tensor_ring(sphere_ring(1, Z), sphere_ring(1, Z))
    assert A.free_ranks() == (1, 2, 1)
    x, y = A.degree_basis(1)
    (top,) = A.degree_basis(2)
    assert A.product(x.id, y.id) == {top.id: 1}
    assert A.product(y.id, x.id) == {top.id: -1}
    assert A.product(x.id, x.id) == {}


def test_s2_times_s2_ring():
    A = tensor_ring(sphere_ring(2, Z), sphere_ring(2, Z))
    assert A.free_ranks() == (1, 0, 2, 0, 1)
    u, v = A.degree_basis(2)
    (top,) = A.degree_basis(4)
    # even degrees commute without sign
    assert A.product(u.id, v.id) == {top.id: 1}
    assert A.product(v.id, u.id) == {top.id: 1}
    assert A.product(u.id, u.id) == {}


def test_tensor_with_unit_ring_is_identity():
    unit = gcps_cohomology([], Z)
    assert unit.free_ranks() == (1,)
    A = cps_cohomology(TORUS, Z)
    B = tensor_ring(A, unit)
    assert B.free_ranks() == A.free_ranks()
    assert compare_invariants(A, B).is_consistent


def test_tensor_kunneth_convolution_of_ranks():
    for left, right in [
        (TORUS, Sphere(2)),
        (S2XS2, TORUS),
        (Sphere(3), GENUS2),
    ]:
        A, B = cps_cohomology(left, Z), cps_cohomology(right, Z)
        C = tensor_ring(A, B)
        ra, rb, rc = A.free_ranks(), B.free_ranks(), C.free_ranks()
        for k in range(len(rc)):
            conv = sum(
                ra[i] * rb[k - i]
                for i in range(len(ra))
                if 0 <= k - i < len(rb)
            )
            assert rc[k] == conv


def test_tensor_ring_mismatch():
    with pytest.raises(RingMismatchError):
        tensor_ring(sphere_ring(1, Z), sphere_ring(1, Q))


# ---------------------------------------------------------------------------
# connected-sum rings
# ---------------------------------------------------------------------------


def test_genus2_ring_table():
    A = cps_cohomology(GENUS2, Z)
    assert A.free_ranks() == (1, 4, 1)
    x1, y1, x2, y2 = A.degree_basis(1)
    (top,) = A.degree_basis(2)
    assert A.product(x1.id, y1.id) == {top.id: 1}
    assert A.product(x2.id, y2.id) == {top.id: -1}
    # cross-summand products vanish
    for a in (x1, y1):
        for b in (x2, y2):
            assert A.product(a.id, b.id) == {}


def test_connsum_of_sphere_products_is_hyperbolic():
    A = cps_cohomology(ConnSum(S2XS2, S2XS2), Z)
    assert A.free_ranks() == (1, 0, 4, 0, 1)
    inv = pairing_invariants(A, 2, 2)
    assert inv.form_divisors == (1, 1, 1, 1)
    assert inv.form_rank == 4
    assert inv.map_divisors == (1,)


def test_connsum_of_spheres_collapses():
    A = connsum_ring(sphere_ring(2, Z), sphere_ring(2, Z))
    assert A.free_ranks() == (1, 0, 1)
    # the one class left is the fundamental class, which no sphere represents
    assert base_classes(BaseSpec(2, (ConnSum(Sphere(2), Sphere(2)),))) == [("e1", 2)]


def test_connsum_top_degree_mismatch():
    with pytest.raises(ValueError):
        connsum_ring(sphere_ring(1, Z), sphere_ring(2, Z))


def test_connsum_needs_rank_one_top():
    wedge = gcps_cohomology([Sphere(2), Sphere(2)], Z)
    with pytest.raises(ValueError):
        connsum_ring(wedge, sphere_ring(2, Z))


# ---------------------------------------------------------------------------
# expression evaluation and wedges
# ---------------------------------------------------------------------------


def test_dimension_and_validation():
    assert dimension(GENUS2) == 2
    assert dimension(Product(Sphere(2), Sphere(3))) == 5
    with pytest.raises(ValueError):
        validate_expr(ConnSum(Sphere(1), Sphere(2)))
    with pytest.raises(ValueError):
        validate_expr(Sphere(0))


def test_cps_product_representable_marks():
    # the factors' classes are sphere classes, their product is not
    A = cps_cohomology(Product(Sphere(1), Sphere(2)), Z)
    assert A.free_ranks() == (1, 1, 1, 1)
    classes = base_classes(BaseSpec(4, (Product(Sphere(1), Sphere(2)),)))
    assert classes == [("nu1", 1), ("nu2", 2), ("e3", 3)]
    assert [e.degree for e in A.basis] == [k for _, k in classes]


def test_gcps_empty_is_point():
    A = gcps_cohomology([], Z)
    assert A.top_degree == 0
    assert A.basis == ()


def test_gcps_wedge_ranks_and_zero_cross_products():
    A = gcps_cohomology([Sphere(1), Sphere(2)], Z)
    assert A.free_ranks() == (1, 1, 1)
    a, b = A.basis
    assert A.product(a.id, b.id) == {}

    two_tori = gcps_cohomology([TORUS, TORUS], Z)
    assert two_tori.free_ranks() == (1, 4, 2)
    # products stay inside their wedge summand
    first_top = two_tori.degree_basis(2)[0]
    x1, y1, x2, y2 = two_tori.degree_basis(1)
    assert two_tori.product(x1.id, y1.id) == {first_top.id: 1}
    assert two_tori.product(x1.id, y2.id) == {}


def test_gcps_leaf_order_is_stable():
    handles = (Product(Sphere(1), Sphere(2)), Sphere(3))
    A = gcps_cohomology(handles, Z)
    classes = base_classes(BaseSpec(4, handles))
    assert [e.degree for e in A.basis] == [k for _, k in classes]
    assert [k for i, k in classes if i.startswith("nu")] == [1, 2, 3]


# ---------------------------------------------------------------------------
# pairing invariants
# ---------------------------------------------------------------------------


def test_torus_pairing_divisor_one():
    A = cps_cohomology(TORUS, Z)
    inv = pairing_invariants(A, 1, 1)
    assert inv.map_divisors == (1,)
    assert inv.map_rank == 1
    assert inv.form_divisors == (1, 1)


def test_wedge_pairing_is_empty():
    A = gcps_cohomology([Sphere(1), Sphere(2)], Z)
    inv = pairing_invariants(A, 1, 1)
    assert inv.map_divisors == ()
    assert inv.map_rank == 0


def test_doubled_product_pairing_divisor_two():
    # one generator pair multiplying to twice the top class
    basis = (
        BasisElement("a", 1),
        BasisElement("b", 2),
        BasisElement("t", 3),
    )
    products = {("a", "b"): {"t": 2}, ("b", "a"): {"t": 2}}
    A = PresentedGradedRing(Z, 3, basis, products)
    inv = pairing_invariants(A, 1, 2)
    assert inv.map_divisors == (2,)

    B = PresentedGradedRing(
        Z, 3, basis, {("a", "b"): {"t": 1}, ("b", "a"): {"t": 1}}
    )
    verdict = compare_invariants(A, B)
    assert verdict.kind == "distinguished"
    assert "pairing (1,2)" in verdict.witness


def test_pairing_degree_range_errors():
    A = cps_cohomology(TORUS, Z)
    with pytest.raises(ValueError):
        pairing_invariants(A, 0, 1)
    with pytest.raises(ValueError):
        pairing_invariants(A, 2, 1)


def test_doubled_product_over_fields():
    basis = (
        BasisElement("a", 1),
        BasisElement("b", 2),
        BasisElement("t", 3),
    )

    def ring_with(c, R):
        prods = {("a", "b"): {"t": c}, ("b", "a"): {"t": c}}
        return PresentedGradedRing(R, 3, basis, prods)

    # rationals cannot tell 1 from 2, the two-element field can
    assert compare_invariants(ring_with(1, Q), ring_with(2, Q)).is_consistent
    v = compare_invariants(ring_with(1, Z2), ring_with(2, Z2))
    assert v.kind == "distinguished"
    inv2 = pairing_invariants(ring_with(2, Z2), 1, 2)
    assert inv2.map_rank == 0
    assert compare_invariants(ring_with(1, Z3), ring_with(4, Z3)).is_consistent


def _dense_pairing_reference(A, p, q):
    """Pairing invariants from zero-filled dense matrices: brute-force
    determinantal divisors over Z, full row reduction over a field."""
    P, Q_, T = A.degree_basis(p), A.degree_basis(q), A.degree_basis(p + q)
    tindex = {e.id: i for i, e in enumerate(T)}
    zero = A.ring.zero()
    map_rows = [[zero] * (len(P) * len(Q_)) for _ in T]
    form_rows = [[zero] * len(P) for _ in range(len(Q_) * len(T))]
    for i, a in enumerate(P):
        for j, b in enumerate(Q_):
            for ic, c in A.products.get((a.id, b.id), {}).items():
                t = tindex[ic]
                map_rows[t][i * len(Q_) + j] = c
                form_rows[j * len(T) + t][i] = c

    def invariants(rows, cols):
        if not rows or cols == 0:
            return 0, (() if A.ring.kind == "Z" else None)
        if A.ring.kind == "Z":
            divisors = determinantal_divisors(rows, cols)
            return len(divisors), divisors
        return field_rank(A.ring, rows, cols), None

    map_rank, map_div = invariants(map_rows, len(P) * len(Q_))
    form_rank, form_div = invariants(form_rows, len(P))
    return PairingInvariants(p, q, A.ring.label, map_rank, form_rank, map_div, form_div)


def _cells(A):
    return [(p, q) for p in range(1, A.top_degree) for q in range(1, A.top_degree - p + 1)]


def _rings_under_test(R):
    for d in random_descriptors(5, 60):
        yield cohomology_ring_of_descriptor(d, R).ring
    for expr in (TORUS, GENUS2, S2XS2, Product(GENUS2, Sphere(1))):
        yield cps_cohomology(expr, R)
    yield tensor_ring(cps_cohomology(GENUS2, R), cps_cohomology(Product(Sphere(1), Sphere(2)), R))
    yield connsum_ring(cps_cohomology(S2XS2, R), cps_cohomology(Product(TORUS, TORUS), R))
    yield connsum_ring(
        cps_cohomology(Product(TORUS, Sphere(1)), R), cps_cohomology(Product(Sphere(1), Sphere(2)), R)
    )
    yield gcps_cohomology([Sphere(1), Sphere(3), TORUS], R)


@pytest.mark.parametrize("R", [Z, Q, Z2, Z3], ids=["Z", "Q", "Z2", "Z3"])
def test_sparse_pairing_matches_dense_reference(R):
    nonunit = 0
    for A in _rings_under_test(R):
        for p, q in _cells(A):
            inv = pairing_invariants(A, p, q)
            assert inv == _dense_pairing_reference(A, p, q), (A, p, q)
            nonunit += any(x > 1 for x in inv.map_divisors or ())
    if R is Z:
        assert nonunit  # the modular residue step was exercised


@pytest.mark.parametrize("R", [Z, Q, Z2], ids=["Z", "Q", "Z2"])
def test_pairing_cells_without_products(R):
    # (1,1) of S^1 v S^2 has a target class but no products; (1,1) of
    # S^1 v S^3 has no target class at all
    for A in (gcps_cohomology([Sphere(1), Sphere(2)], R), gcps_cohomology([Sphere(1), Sphere(3)], R)):
        inv = pairing_invariants(A, 1, 1)
        assert inv == _dense_pairing_reference(A, 1, 1)
        assert (inv.map_rank, inv.form_rank) == (0, 0)
        assert inv.map_divisors == inv.form_divisors == (() if R is Z else None)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


EXAMPLE_EXPRS = [
    Sphere(1),
    Sphere(3),
    TORUS,
    GENUS2,
    S2XS2,
    ConnSum(S2XS2, S2XS2),
    Product(Sphere(1), Sphere(2)),
    Product(TORUS, Sphere(2)),
]


@pytest.mark.parametrize("expr", EXAMPLE_EXPRS)
@pytest.mark.parametrize("R", [Z, Q, Z2, Z3])
def test_compare_self_consistent(expr, R):
    A = cps_cohomology(expr, R)
    assert compare_invariants(A, A).is_consistent


@pytest.mark.parametrize("expr", [TORUS, GENUS2, ConnSum(S2XS2, S2XS2)])
def test_invariants_survive_basis_sign_flips(expr):
    A = cps_cohomology(expr, Z)
    for e in A.basis:
        flipped = negate_basis_element(A, e.id)
        # the rescaled table is still a valid ring
        PresentedGradedRing(Z, A.top_degree, flipped.basis, flipped.products)
        assert compare_invariants(A, flipped).is_consistent


def test_compare_distinguishes_rank():
    A = gcps_cohomology([Sphere(1)], Z)
    B = gcps_cohomology([Sphere(1), Sphere(1)], Z)
    v = compare_invariants(A, B)
    assert v.kind == "distinguished"
    assert "rank" in v.witness


def test_compare_distinguishes_top_degree():
    v = compare_invariants(sphere_ring(1, Z), sphere_ring(2, Z))
    assert v.kind == "distinguished"


def test_compare_ring_mismatch():
    with pytest.raises(RingMismatchError):
        compare_invariants(sphere_ring(1, Z), sphere_ring(1, Q))


def test_wedge_vs_torus_distinguished_by_pairing():
    # equal ranks everywhere, different ring structure
    wedge = gcps_cohomology([Sphere(1), Sphere(1), Sphere(2)], Z)
    torus = cps_cohomology(TORUS, Z)
    assert wedge.free_ranks() == torus.free_ranks()
    v = compare_invariants(wedge, torus)
    assert v.kind == "distinguished"
    assert "pairing (1,1)" in v.witness


# ---------------------------------------------------------------------------
# table validation catches broken inputs
# ---------------------------------------------------------------------------


def test_check_rejects_wrong_koszul_sign():
    basis = (BasisElement("x", 1), BasisElement("y", 1), BasisElement("t", 2))
    products = {("x", "y"): {"t": 1}, ("y", "x"): {"t": 1}}
    with pytest.raises(ValueError, match="commutativity"):
        PresentedGradedRing(Z, 2, basis, products)


def test_check_rejects_degree_violation():
    basis = (BasisElement("x", 1), BasisElement("t", 3))
    with pytest.raises(ValueError, match="degree"):
        PresentedGradedRing(Z, 3, basis, {("x", "x"): {"t": 1}})


def test_check_rejects_nonassociative_table():
    basis = (
        BasisElement("a", 2),
        BasisElement("b", 2),
        BasisElement("t", 4),
        BasisElement("u", 6),
    )
    products = {
        ("a", "a"): {"t": 1},
        ("t", "b"): {"u": 1},
        ("b", "t"): {"u": 1},
    }
    with pytest.raises(ValueError, match="associativity"):
        PresentedGradedRing(Z, 6, basis, products)


def test_check_rejects_product_above_top():
    basis = (BasisElement("x", 2), BasisElement("t", 4))
    with pytest.raises(ValueError, match="top degree"):
        PresentedGradedRing(Z, 3, basis, {("x", "x"): {"t": 1}})


def test_check_rejects_product_stored_only_in_reversed_order():
    basis = (BasisElement("x", 2), BasisElement("y", 2), BasisElement("t", 4))
    with pytest.raises(ValueError, match="commutativity"):
        PresentedGradedRing(Z, 4, basis, {("y", "x"): {"t": 1}})


def test_check_rejects_nonassociativity_through_absent_pair():
    # a·b is absent, so (a·b)·b = 0, but a·(b·b) = a·t = u
    basis = (
        BasisElement("a", 2),
        BasisElement("b", 2),
        BasisElement("t", 4),
        BasisElement("u", 6),
    )
    products = {
        ("b", "b"): {"t": 1},
        ("a", "t"): {"u": 1},
        ("t", "a"): {"u": 1},
    }
    with pytest.raises(ValueError, match="associativity"):
        PresentedGradedRing(Z, 6, basis, products)


def test_check_accepts_products_that_cancel_mod_p():
    # (a·b)·c = x·c + y·c = 2t, which is 0 over Z/2, as is a·(b·c)
    basis = (
        BasisElement("a", 1),
        BasisElement("b", 1),
        BasisElement("c", 1),
        BasisElement("x", 2),
        BasisElement("y", 2),
        BasisElement("t", 3),
    )
    products = {
        ("a", "b"): {"x": 1, "y": 1},
        ("b", "a"): {"x": 1, "y": 1},
        ("x", "c"): {"t": 1},
        ("c", "x"): {"t": 1},
        ("y", "c"): {"t": 1},
        ("c", "y"): {"t": 1},
    }
    PresentedGradedRing(Z2, 3, basis, products)


def _reference_failure(ring, basis, products):
    """Brute-force verdict over all basis pairs and triples.

    Returns None, "commutativity" or "associativity", whichever fails
    first when commutativity is checked before associativity.
    """
    deg = {e.id: e.degree for e in basis}
    zero = ring.zero()

    def mul(u, v):
        out = {}
        for i, x in u.items():
            for j, y in v.items():
                for k, z in products.get((i, j), {}).items():
                    out[k] = ring.convert(out.get(k, zero) + x * y * z)
        return {k: c for k, c in out.items() if c != zero}

    unit = {i: {i: ring.one()} for i in deg}
    for a in deg:
        for b in deg:
            sign = -1 if deg[a] % 2 and deg[b] % 2 else 1
            ba = mul(unit[b], unit[a])
            if mul(unit[a], unit[b]) != {k: ring.convert(sign * c) for k, c in ba.items()}:
                return "commutativity"
    for a in deg:
        for b in deg:
            for c in deg:
                left = mul(mul(unit[a], unit[b]), unit[c])
                if left != mul(unit[a], mul(unit[b], unit[c])):
                    return "associativity"
    return None


def _random_table(rng):
    """A degree-additive table, graded-commutative before one optional edit."""
    top = rng.randint(3, 6)
    n = rng.randint(3, 7)
    basis = [BasisElement(f"e{i}", rng.randint(1, top - 1)) for i in range(n)]
    products = {}
    for i, a in enumerate(basis):
        for b in basis[i:]:
            targets = [e.id for e in basis if e.degree == a.degree + b.degree]
            odd_square = a is b and a.degree % 2
            if not targets or rng.random() < 0.4 or (odd_square and rng.random() < 0.8):
                continue
            hit = rng.sample(targets, rng.randint(1, len(targets)))
            vec = {t: rng.randint(-2, 2) for t in hit}
            sign = -1 if a.degree % 2 and b.degree % 2 else 1
            products[(a.id, b.id)] = vec
            products[(b.id, a.id)] = {t: sign * v for t, v in vec.items()}
    if products and rng.random() < 0.3:
        key = rng.choice(sorted(products))
        if rng.random() < 0.5:
            del products[key]
        else:
            t = rng.choice(sorted(products[key]))
            products[key] = {**products[key], t: products[key][t] + 1}
    return top, basis, products


def test_check_agrees_with_brute_force_on_random_tables():
    rng = random.Random(0)
    seen = Counter()
    for _ in range(400):
        ring = rng.choice((Z, Z2))
        top, basis, products = _random_table(rng)
        want = _reference_failure(ring, basis, products)
        if want is None:
            PresentedGradedRing(ring, top, basis, products)
        else:
            with pytest.raises(ValueError, match=want):
                PresentedGradedRing(ring, top, basis, products)
        seen[want] += 1
    # every verdict is exercised, not only acceptance
    assert min(seen[None], seen["commutativity"], seen["associativity"]) >= 10

