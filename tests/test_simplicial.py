"""Simplicial engine tests: homology, surgery constructions, cup products.

Expected values are classical (spheres, torus, projective plane, genus-2
surface, sphere products); structural invariants (boundary squared, Euler
characteristic, Kunneth, Mayer-Vietoris bookkeeping) are checked on
generated instances.
"""

import pytest
from field_reference import field_kernel, field_rank
from helpers import check_split, full_simplex, tier2_entries, transpose
from hypothesis import given, settings
from hypothesis import strategies as st

from reeb_bubble.catalog import ENTRIES
from reeb_bubble.coefficients import CoefficientRing, rank_over, sparse_column_reduction
from reeb_bubble.graded import (
    ConnSum,
    Product,
    Sphere,
    compare_invariants,
    cps_cohomology,
    gcps_cohomology,
    pairing_invariants,
)
from reeb_bubble.oracle import assemble_chain_complex, simplicial_model
from reeb_bubble.simplicial import (
    _PIECE_BOUND,
    ChainComplexZ,
    _build_integral_solver,
    _maximal_simplices,
    SimplicialComplex,
    SimplicialMap,
    chain_complex_of,
    connected_sum_with_maps,
    cup_ring_of_complex,
    degree_map,
    euler_characteristic,
    glue_along,
    homology_of_chain_complex,
    homology_of_complex,
    mapping_cylinder,
    measured_degree,
    polygon_complex,
    product_complex,
    sphere_complex,
    sphere_product,
    suspension_complex,
    top_cycle,
    wedge_complexes,
)

Z = CoefficientRing.integers()
Q = CoefficientRing.rationals()
Z2 = CoefficientRing.prime_field(2)
Z3 = CoefficientRing.prime_field(3)

RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def rp2():
    return SimplicialComplex.from_facets(range(1, 7), RP2_FACETS)


def torus():
    return product_complex(sphere_complex(1), sphere_complex(1))


def _from_rows(bases, matrices):
    # each boundary written as rows over the cells of bases[k], handed over as columns
    return ChainComplexZ(bases, [transpose(m, len(b)) for m, b in zip(matrices, bases)])


def cone_complex(K, apex):
    """Cone on K, the apex last in the vertex order: it must exceed max(K)."""
    simplices = set(K.simplices) | {(apex,)} | {s + (apex,) for s in K.simplices}
    return SimplicialComplex(K.vertices + (apex,), simplices, check=False)


def moore_three():
    """A degree-3 circle map's cylinder with a cone on its domain: H_1 = Z/3."""
    f = degree_map(1, 3)
    C, dlab, _ = mapping_cylinder(f)
    cone = cone_complex(f.domain, len(f.domain.vertices))
    G, _ = glue_along(
        C,
        C.restrict_full(dlab.values()),
        cone,
        cone.restrict_full(f.domain.vertices),
        {dlab[v]: v for v in f.domain.vertices},
    )
    return G


# ---------------------------------------------------------------------------
# complexes and chain complexes
# ---------------------------------------------------------------------------


def test_sphere_complexes():
    s0 = sphere_complex(0)
    assert s0.counts() == (2,)
    assert homology_of_complex(s0, Z).free_ranks == (2,)
    assert homology_of_complex(sphere_complex(1), Z).free_ranks == (1, 1)
    assert homology_of_complex(sphere_complex(2), Z).free_ranks == (1, 0, 1)
    assert homology_of_complex(sphere_complex(3), Z).free_ranks == (1, 0, 0, 1)


def test_empty_complex_has_zero_homology_and_no_cup_ring():
    empty = SimplicialComplex((), set())
    assert chain_complex_of(empty).bases == []
    for R in (Z, Q, Z2, Z3):
        h = homology_of_complex(empty, R)
        assert (h.free_ranks, h.torsion, h.total_rank) == ((), (), 0), R.label
        with pytest.raises(ValueError, match="connected"):
            cup_ring_of_complex(empty, R)


def test_closure_validation():
    with pytest.raises(ValueError, match="missing face"):
        SimplicialComplex((0, 1, 2), {(0,), (1,), (2,), (0, 1, 2)})
    with pytest.raises(ValueError, match="not sorted"):
        SimplicialComplex((0, 1), {(0,), (1,), (1, 0)})
    with pytest.raises(ValueError, match="not an int"):
        SimplicialComplex((0, (1,)), {(0,), ((1,),)})
    for vertices in ((1, 0), (0, 0)):
        with pytest.raises(ValueError, match="strictly increasing"):
            SimplicialComplex(vertices, {(0,), (1,)})


def test_boundary_squared_checked():
    cx = chain_complex_of(sphere_complex(2))
    ChainComplexZ(cx.bases, cx.boundaries)  # re-validates
    for rows in ([[1]], [{0: 1}]):
        with pytest.raises(ValueError, match="squared"):
            _from_rows([["a"], ["b"], ["c"]], [[], rows, rows])
    # a 2-simplex whose boundary misses one sign: d(d) picks up 2 * vertex
    bases = [[0, 1, 2], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]]
    d1 = [{0: -1, 1: -1}, {0: 1, 2: -1}, {1: 1, 2: 1}]
    _from_rows(bases, [[], d1, [{0: 1}, {0: -1}, {0: 1}]])
    with pytest.raises(ValueError, match="squared"):
        _from_rows(bases, [[], d1, [{0: 1}, {0: 1}, {0: 1}]])


@pytest.mark.parametrize(
    "make", [torus, rp2, lambda: sphere_complex(3)], ids=["torus", "rp2", "s3"]
)
def test_boundary_columns_are_checked_and_cleared(make):
    cx = chain_complex_of(make())
    bases, boundaries, top = cx.bases, cx.boundaries, cx.max_degree
    # the columns chain_complex_of wrote are kept, not copied, and pass every check
    assert ChainComplexZ(bases, boundaries).boundaries is boundaries

    def with_first(k, col):
        return boundaries[:k] + [[col] + boundaries[k][1:]] + boundaries[k + 1 :]

    # a row index outside range(len(bases[k - 1])) is rejected on both paths
    for k in range(top + 1):
        rows = cx.dim_at(k - 1)
        for bad in ({rows: 1}, {-1: 1}):
            for check in (True, False):
                with pytest.raises(ValueError, match="row index"):
                    ChainComplexZ(bases, with_first(k, bad), check=check)
    # one flipped sign in a top column breaks d(d) = 0; so does a zero entry
    col = dict(boundaries[top][0])
    col[min(col)] *= -1
    with pytest.raises(ValueError, match="squared"):
        ChainComplexZ(bases, with_first(top, col))
    ChainComplexZ(bases, with_first(top, col), check=False)
    col[min(col)] = 0
    with pytest.raises(ValueError, match="zero entry"):
        ChainComplexZ(bases, with_first(top, col))
    # a cleared column joins neither the retired columns nor the kernel,
    # and the rest reduces as if it were zero: the same units and residue,
    # pivot rows, columns and listed order alike
    for k in range(1, top):
        cleared = cx.reduction(k + 1).units.keys()
        red = cx.reduction(k)
        assert cleared
        assert not any(cleared & vec.keys() for vec in red.kernel_cols)
        assert red.rank + len(red.kernel_cols) == cx.dim_at(k) - len(cleared)
        zero_cols = [{} if j in cleared else c for j, c in enumerate(boundaries[k])]
        zeroed = sparse_column_reduction(zero_cols)
        assert list(zeroed.units.items()) == list(red.units.items())
        assert zeroed.residue == red.residue
        assert [v for v in zeroed.kernel_cols if v.keys() - cleared] == red.kernel_cols


def test_boundary_column_index_checked():
    bases = [["a", "b"], ["e"]]
    ChainComplexZ(bases, [[{}, {}], [{0: 1, 1: -1}]])
    for bad in ({2: 1}, {-1: 1}, {0: 1, 1: -1, 2: 1}):
        with pytest.raises(ValueError, match="row index"):
            ChainComplexZ(bases, [[{}, {}], [bad]])


def test_only_unit_pivot_rows_are_cleared():
    # d2(x) = e + 2f retires its lowest row f with pivot 2; f is not a unit
    # pivot row, so d1 = [2, -1] keeps it and stays onto Z.  Clearing it as
    # well would leave [2] and a false Z/2 in H_0.
    cx = _from_rows([["v"], ["e", "f"], ["x"]], [[], [[2, -1]], [[1], [2]]])
    above = cx.reduction(2)
    assert above.units == {} and above.residue == [(1, {0: 1, 1: 2})]
    assert cx.reduction(1).divisors == (1,)
    assert homology_of_chain_complex(cx, Z).torsion == ((), (), ())
    # with d2(x) = 2e + f the unit pivot row f is cleared out of d1 = [-1, 2]
    cx = _from_rows([["v"], ["e", "f"], ["x"]], [[], [[-1, 2]], [[2], [1]]])
    assert cx.reduction(2).units == {1: {0: 2, 1: 1}}
    # only column e = [-1] is reduced, retired with its sign flipped
    below = cx.reduction(1)
    assert below.units == {0: {0: 1}} and below.residue == [] and below.kernel_cols == []
    assert cx.reduction(1).divisors == (1,)


def _sliced_boundaries(K):
    """Bases sorted per dimension and boundary columns found by slicing
    each simplex: the reference for the column-wise assembly."""
    bases = [sorted(s for s in K.simplices if len(s) == k + 1) for k in range(K.dim + 1)]
    columns = [[[] for _ in bases[0]]]
    for k in range(1, K.dim + 1):
        index = {s: i for i, s in enumerate(bases[k - 1])}
        columns.append(
            [[(index[s[:i] + s[i + 1 :]], (-1) ** i) for i in range(k + 1)] for s in bases[k]]
        )
    return bases, columns


@pytest.mark.parametrize("entry", tier2_entries(), ids=lambda e: e.name)
def test_boundary_columns_match_face_slicing(entry):
    # entries and their order, column by column
    K = simplicial_model(entry.descriptor)
    cx = chain_complex_of(K)
    got = [[list(col.items()) for col in m] for m in cx.boundaries]
    assert (cx.bases, got) == _sliced_boundaries(K)


def _divisor_scan_homology(cx, R):
    """Ranks and torsion read off every divisor of each whole boundary."""
    top = cx.max_degree
    divisors = [
        sparse_column_reduction(cx.boundaries[k]).divisors
        if k and cx.dim_at(k) and cx.dim_at(k - 1)
        else ()
        for k in range(top + 1)
    ] + [()]
    ranks = tuple(
        cx.dim_at(k) - rank_over(R, divisors[k]) - rank_over(R, divisors[k + 1])
        for k in range(top + 1)
    )
    torsion = tuple(
        tuple(d for d in divisors[k + 1] if d > 1) if R.kind == "Z" else ()
        for k in range(top + 1)
    )
    return ranks, torsion


_READOUT_CASES = [
    ("torus", lambda: chain_complex_of(torus())),
    ("rp2", lambda: chain_complex_of(rp2())),
    ("suspended-rp2", lambda: chain_complex_of(suspension_complex(rp2()))),
    ("moore-three", lambda: chain_complex_of(moore_three())),
    ("rp2-x-circle", lambda: chain_complex_of(product_complex(rp2(), sphere_complex(1)))),
    # Z/2 in H_1, H_2 and H_3: both universal-coefficient terms in adjacent degrees
    ("rp2-x-rp2", lambda: chain_complex_of(product_complex(rp2(), rp2()))),
    # H_1 = Z/6, one divisor that both 2 and 3 divide
    ("rp2-v-moore-three", lambda: chain_complex_of(wedge_complexes([rp2(), moore_three()])[0])),
] + [
    (f"tier1-{e.name}", lambda d=e.descriptor: assemble_chain_complex(d)) for e in ENTRIES
] + [
    (f"tier2-{e.name}", lambda d=e.descriptor: chain_complex_of(simplicial_model(d)))
    for e in tier2_entries()[:6]
]


@pytest.mark.parametrize("make", [m for _, m in _READOUT_CASES], ids=[n for n, _ in _READOUT_CASES])
def test_homology_readout_matches_divisor_scan(make):
    # integral homology is read once; Q and Z/p follow by universal coefficients
    cx = make()
    for R in (Z, Q, Z2, Z3):
        h = homology_of_chain_complex(cx, R)
        assert (h.free_ranks, h.torsion) == _divisor_scan_homology(cx, R), R.label


_SPLIT_CASES = [
    ("torus", torus),
    ("rp2", rp2),
    ("s3", lambda: sphere_complex(3)),
    # Z/3 torsion: rows wait and are cut on real boundaries
    ("moore-three", moore_three),
    ("moore-three-x-s2", lambda: product_complex(moore_three(), sphere_complex(2))),
] + [(e.name, lambda d=e.descriptor: simplicial_model(d)) for e in tier2_entries()]


@pytest.mark.parametrize("make", [m for _, m in _SPLIT_CASES], ids=[n for n, _ in _SPLIT_CASES])
def test_units_and_residue_span_each_boundary(make):
    # the cocycle solvers test against the units and residue alone, so they
    # must span the lattice of every column of the boundary, cleared ones
    # included: adding the boundary to them changes no divisor, and they
    # have the boundary's divisors on their own
    cx = chain_complex_of(make())
    for k in range(1, cx.max_degree + 1):
        red = cx.reduction(k)
        check_split(red)
        image = [*red.units.values(), *(col for _, col in red.residue)]
        both = sparse_column_reduction(image + list(cx.boundaries[k])).divisors
        assert both == sparse_column_reduction(image).divisors == red.divisors, k


def test_simplicial_map_validation():
    S1 = sphere_complex(1)
    S2 = sphere_complex(2)
    with pytest.raises(ValueError, match="spans no simplex"):
        SimplicialMap(S2, S1, {0: 0, 1: 1, 2: 2, 3: 0})  # a 2-simplex has nowhere to go
    SimplicialMap(S1, S2, {0: 0, 1: 1, 2: 2})  # circle into a sphere is fine


# ---------------------------------------------------------------------------
# products, wedges, connected sums
# ---------------------------------------------------------------------------


def test_torus_product():
    T = torus()
    assert len(T.vertices) == 9
    assert homology_of_complex(T, Z).free_ranks == (1, 2, 1)
    assert euler_characteristic(T) == 0


def test_product_with_point():
    P = product_complex(sphere_complex(1), full_simplex(0))
    assert homology_of_complex(P, Z).free_ranks == (1, 1)


def test_s2_x_s2():
    P = product_complex(sphere_complex(2), sphere_complex(2))
    assert homology_of_complex(P, Z).free_ranks == (1, 0, 2, 0, 1)
    assert euler_characteristic(P) == 4


@pytest.mark.parametrize(
    "K,L",
    [
        (sphere_complex(1), sphere_complex(2)),
        (sphere_complex(1), polygon_complex(5)),
        (sphere_complex(2), sphere_complex(1)),
    ],
)
def test_kunneth_convolution(K, L):
    P = product_complex(K, L)
    a = homology_of_complex(K, Q).free_ranks
    b = homology_of_complex(L, Q).free_ranks
    c = homology_of_complex(P, Q).free_ranks
    for k in range(len(c)):
        conv = sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        assert c[k] == conv


def test_wedges():
    two_circles = wedge_complexes([sphere_complex(1), sphere_complex(1)])[0]
    assert homology_of_complex(two_circles, Z).free_ranks == (1, 2)
    mixed = wedge_complexes([sphere_complex(1), sphere_complex(2)])[0]
    assert homology_of_complex(mixed, Z).free_ranks == (1, 1, 1)
    single = wedge_complexes([sphere_complex(2)])[0]
    assert homology_of_complex(single, Z).free_ranks == (1, 0, 1)
    point = wedge_complexes([])[0]
    assert homology_of_complex(point, Z).free_ranks == (1,)


def test_wedge_with_late_basepoint_stays_sorted():
    S1 = sphere_complex(1)
    W, _ = wedge_complexes([S1, S1], basepoints=[2, 1])
    assert homology_of_complex(W, Z).free_ranks == (1, 2)


def test_genus_two_connected_sum():
    G2 = connected_sum_with_maps(torus(), torus(), 2)[0]
    assert homology_of_complex(G2, Z).free_ranks == (1, 4, 1)
    assert euler_characteristic(G2) == -2


def test_sphere_is_connected_sum_unit():
    SS = connected_sum_with_maps(sphere_complex(2), sphere_complex(2), 2)[0]
    assert homology_of_complex(SS, Z).free_ranks == (1, 0, 1)


def test_connected_sum_needs_facets():
    with pytest.raises(ValueError, match="facet"):
        connected_sum_with_maps(sphere_complex(1), sphere_complex(2), 2)[0]


def test_connected_sum_avoid_sets():
    T = torus()
    # (u, 0) is vertex 3u of the product of two triangles
    section = [v for v in T.vertices if v % 3 == 0]
    G, _ = connected_sum_with_maps(T, torus(), 2, avoid_K=section)
    assert all(G.has([v]) for v in section)
    sub = G.restrict_full(section)
    assert homology_of_complex(sub, Z).free_ranks == (1, 1)


# ---------------------------------------------------------------------------
# homology engine
# ---------------------------------------------------------------------------


def test_projective_plane_homology():
    K = rp2()
    hz = homology_of_complex(K, Z)
    assert hz.free_ranks == (1, 0, 0)
    assert hz.torsion == ((), (2,), ())
    assert homology_of_complex(K, Z2).free_ranks == (1, 1, 1)
    assert homology_of_complex(K, Q).free_ranks == (1, 0, 0)
    assert homology_of_complex(K, Z3).free_ranks == (1, 0, 0)


@pytest.mark.parametrize(
    "K",
    [
        sphere_complex(2),
        torus(),
        rp2(),
        wedge_complexes([sphere_complex(1), sphere_complex(2)])[0],
        connected_sum_with_maps(torus(), torus(), 2)[0],
    ],
)
def test_euler_equals_alternating_betti(K):
    betti = homology_of_complex(K, Q).free_ranks
    assert euler_characteristic(K) == sum((-1) ** i * b for i, b in enumerate(betti))


def test_top_cycle():
    z = top_cycle(sphere_complex(1))
    assert sorted(z.values()) == [-1, 1, 1]
    z2 = top_cycle(torus())
    assert set(z2.values()) <= {1, -1}
    with pytest.raises(ValueError, match="rank"):
        top_cycle(wedge_complexes([sphere_complex(2), sphere_complex(2)])[0])


@pytest.mark.parametrize("l", [1, 2, 3])
def test_top_cycle_is_a_signed_cycle(l):
    # the first top simplex in basis order carries +1, in basis order,
    # whatever sign the kernel vector of the boundary reduction has
    for K in (sphere_complex(l), degree_map(l, 2).domain, torus()):
        z = top_cycle(K)
        basis = chain_complex_of(K).bases[K.dim]
        assert list(z) == [s for s in basis if s in z]
        assert next(iter(z.values())) == 1
        boundary = {}
        for s, c in z.items():
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                boundary[face] = boundary.get(face, 0) + (-1) ** i * c
        assert not any(boundary.values())


@st.composite
def _small_complexes(draw):
    n = draw(st.integers(1, 8))
    facet = st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True)
    return SimplicialComplex.from_facets(range(n), draw(st.lists(facet, min_size=1, max_size=10)))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_small_complexes())
def test_cleared_reductions_keep_divisors_and_cocycles(K):
    # each boundary is reduced with the unit pivot rows of the next one
    # left out; its divisors must be those of the whole matrix, and the
    # cocycle solvers built on the cleared splitting pass their dual-basis
    # check whenever a cup ring can be built
    cx = chain_complex_of(K)
    for k in range(1, cx.max_degree + 1):
        whole = sparse_column_reduction(cx.boundaries[k])
        assert cx.reduction(k).divisors == whole.divisors, k
    if homology_of_complex(K, Z).rank(0) == 1:
        ring = cup_ring_of_complex(K, Q)
        assert ring.free_ranks() == homology_of_complex(K, Q).free_ranks


# ---------------------------------------------------------------------------
# degree maps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("d", [-3, -2, -1, 0, 1, 2, 3])
def test_degree_map_multiplier_grid(l, d):
    f = degree_map(l, d)
    assert f.codomain.simplices == sphere_complex(l).simplices
    assert measured_degree(f) == d
    # a polygon winding |d| times (a triangle for |d| <= 1), plus two
    # poles per suspension
    assert len(f.domain.vertices) == 3 * max(abs(d), 1) + 2 * (l - 1)


def test_standard_pieces_are_shared_and_read_only():
    assert sphere_complex(3) is sphere_complex(3)
    assert sphere_product(1, 2) is sphere_product(1, 2)
    fresh = product_complex(sphere_complex(1), sphere_complex(2))
    assert sphere_product(1, 2).simplices == fresh.simplices
    for l in (1, 2, 3):
        for d in (-3, -2, -1, 1, 2, 3):
            f = degree_map(l, d)
            assert degree_map(l, d) is f
            # measured when built; measuring the shared map again agrees
            assert measured_degree(degree_map(l, d)) == d
    with pytest.raises(TypeError):
        degree_map(2, 2).vertex_map[0] = 1
    # past the bound each call builds, and measures, a map of its own
    d = _PIECE_BOUND + 1
    assert degree_map(1, d) is not degree_map(1, d)
    assert measured_degree(degree_map(1, d)) == d


@pytest.mark.parametrize(
    "make",
    [
        lambda: sphere_complex(0),
        lambda: sphere_complex(3),
        torus,
        lambda: product_complex(torus(), sphere_complex(1)),
        lambda: sphere_product(2, 1),
        lambda: suspension_complex(polygon_complex(5)),
        lambda: suspension_complex(suspension_complex(polygon_complex(4))),
        lambda: mapping_cylinder(degree_map(1, 2))[0],
        lambda: mapping_cylinder(degree_map(2, -3))[0],
        lambda: wedge_complexes([sphere_complex(2), sphere_complex(1)])[0],
        lambda: SimplicialComplex.from_facets(range(5), [(0, 1, 2), (2, 3), (4,)]),
    ],
    ids=[
        "s0", "s3", "torus", "torus-x-s1", "s2-x-s1", "suspended-pentagon",
        "twice-suspended-square", "cylinder-1-2", "cylinder-2-minus-3",
        "s2-wedge-s1", "mixed-facets",
    ],
)
def test_maximal_simplices_match_brute_force(make):
    K = make()
    brute = {s for s in K.simplices if not any(set(s) < set(t) for t in K.simplices)}
    assert _maximal_simplices(K) == sorted(brute)


def test_suspension_homology():
    S = suspension_complex(sphere_complex(1))
    assert homology_of_complex(S, Z).free_ranks == (1, 0, 1)


# ---------------------------------------------------------------------------
# cylinders and gluing
# ---------------------------------------------------------------------------


def test_cylinder_of_identity():
    S1 = sphere_complex(1)
    f = SimplicialMap(S1, S1, {v: v for v in S1.vertices})
    C, dmap, cmap = mapping_cylinder(f)
    assert homology_of_complex(C, Z).free_ranks[:2] == (1, 1)
    # domain and codomain sit inside disjointly
    assert C.has([dmap[0], dmap[1]])
    assert C.has([cmap[0], cmap[1]])
    assert set(dmap.values()).isdisjoint(cmap.values())


def test_cylinder_of_degree_two():
    C, _, _ = mapping_cylinder(degree_map(1, 2))
    h = homology_of_complex(C, Z)
    assert h.free_ranks == (1, 1, 0)
    assert h.is_free


def test_cylinder_of_constant_is_contractible_to_point_target():
    S1 = sphere_complex(1)
    pt = full_simplex(0)
    f = SimplicialMap(S1, pt, {v: 0 for v in S1.vertices})
    C, _, _ = mapping_cylinder(f)
    assert homology_of_complex(C, Z).free_ranks == (1, 0, 0)


def test_two_discs_glue_to_sphere():
    S1 = sphere_complex(1)
    D1 = cone_complex(S1, 3)
    D2 = cone_complex(S1, 4)
    bd1 = D1.restrict_full([0, 1, 2])
    bd2 = D2.restrict_full([0, 1, 2])
    G, _ = glue_along(D1, bd1, D2, bd2, {v: v for v in bd1.vertices})
    assert homology_of_complex(G, Z).free_ranks == (1, 0, 1)


def test_point_gluing_is_wedge():
    T = torus()
    S2c = sphere_complex(2)
    ptA = T.restrict_full([T.vertices[0]])
    ptB = S2c.restrict_full([0])
    G, _ = glue_along(T, ptA, S2c, ptB, {T.vertices[0]: 0})
    assert homology_of_complex(G, Z).free_ranks == (1, 2, 2)


def test_glue_rejects_mismatched_subcomplexes():
    S1 = sphere_complex(1)
    D = cone_complex(S1, 3)
    bd = D.restrict_full([0, 1, 2])
    two_points = SimplicialComplex((0, 1), {(0,), (1,)})
    with pytest.raises(ValueError):
        glue_along(D, bd, D, two_points, {0: 0, 1: 1, 2: 2})


def test_glue_collision_guard():
    edge = SimplicialComplex.from_facets((0, 1), [(0, 1)])
    ends = SimplicialComplex((0, 1), {(0,), (1,)})
    with pytest.raises(ValueError, match="collides"):
        glue_along(edge, ends, edge, ends, {0: 0, 1: 1})


def _disjoint_union(K, L):
    mk = {v: i for i, v in enumerate(K.vertices)}
    ml = {v: len(mk) + i for i, v in enumerate(L.vertices)}
    vertices = [mk[v] for v in K.vertices] + [ml[v] for v in L.vertices]
    simplices = {tuple(mk[v] for v in s) for s in K.simplices}
    simplices |= {tuple(ml[v] for v in s) for s in L.simplices}
    U = SimplicialComplex(tuple(vertices), simplices, check=False)
    return U, mk, ml


@pytest.mark.parametrize("case", ["discs", "tori"])
def test_mayer_vietoris_bookkeeping(case):
    if case == "discs":
        S1 = sphere_complex(1)
        K = cone_complex(S1, 3)
        L = cone_complex(S1, 4)
        A = K.restrict_full([0, 1, 2])
        B = L.restrict_full([0, 1, 2])
        iso = {v: v for v in A.vertices}
    else:
        K = torus()
        L = torus()
        section = [v for v in K.vertices if v % 3 == 0]
        A = K.restrict_full(section)
        B = L.restrict_full(section)
        iso = {v: v for v in A.vertices}
    G, _ = glue_along(K, A, L, B, iso)

    U, mk, ml = _disjoint_union(K, L)
    # A -> K u L via both inclusions
    both = SimplicialMap(
        A, U, {v: mk[v] for v in A.vertices}
    )
    into_L = SimplicialMap(A, U, {v: ml[iso[v]] for v in A.vertices})
    # combined map sends a cycle to (i_K(z), i_L(z)); realize it as the map
    # into the union complex where the two copies stay disjoint
    bA = homology_of_complex(A, Q).free_ranks
    bK = homology_of_complex(K, Q).free_ranks
    bL = homology_of_complex(L, Q).free_ranks
    bG = homology_of_complex(G, Q).free_ranks
    top = max(len(bA), len(bK), len(bL), len(bG)) + 1

    def rank_alpha(i):
        # rank of z -> (z in K, z in L) equals the rank of the difference
        # map into the union with the second copy negated; over a field the
        # two differ by an automorphism of the target, so ranks agree
        dom_cx = chain_complex_of(A)
        if i > dom_cx.max_degree:
            return 0
        return _combined_rank(A, U, both, into_L, i)

    def _combined_rank(A, U, f1, f2, k):
        dom_cx = chain_complex_of(A)
        cod_cx = chain_complex_of(U)
        rows = transpose(dom_cx.boundaries[k], dom_cx.dim_at(k - 1)) if k > 0 else []
        cycles = field_kernel(Q, rows, dom_cx.dim_at(k))
        if not cycles:
            return 0
        index = {s: i for i, s in enumerate(cod_cx.bases[k])}
        vecs = []
        for v in cycles:
            chain = {dom_cx.bases[k][i]: c for i, c in enumerate(v) if c}
            im1 = f1.chain_image(chain)
            im2 = f2.chain_image(chain)
            out = [Q.convert(0)] * cod_cx.dim_at(k)
            for s, c in im1.items():
                out[index[s]] += Q.convert(c)
            for s, c in im2.items():
                out[index[s]] += Q.convert(c)
            vecs.append(out)
        boundaries = []
        if k + 1 <= cod_cx.max_degree:
            m = cod_cx.boundaries[k + 1]
            for j in range(cod_cx.dim_at(k + 1)):
                boundaries.append(
                    [Q.convert(m[j].get(i, 0)) for i in range(cod_cx.dim_at(k))]
                )
        return field_rank(Q, boundaries + vecs, cod_cx.dim_at(k)) - field_rank(
            Q, boundaries, cod_cx.dim_at(k)
        )

    def b(r, i):
        return r[i] if 0 <= i < len(r) else 0

    for i in range(top):
        expected = (
            b(bK, i) + b(bL, i) - rank_alpha(i) + (b(bA, i - 1) - rank_alpha(i - 1) if i >= 1 else 0)
        )
        assert b(bG, i) == expected, f"MV fails at degree {i}"


# ---------------------------------------------------------------------------
# cup products
# ---------------------------------------------------------------------------


def test_torus_cup_ring():
    ring = cup_ring_of_complex(torus(), Z)
    assert ring.free_ranks() == (1, 2, 1)
    inv = pairing_invariants(ring, 1, 1)
    assert inv.map_divisors == (1,)
    formula = cps_cohomology(Product(Sphere(1), Sphere(1)))
    assert compare_invariants(ring, formula).is_consistent


def test_wedge_cup_ring_trivial():
    W = wedge_complexes([sphere_complex(1), sphere_complex(1), sphere_complex(2)])[0]
    ring = cup_ring_of_complex(W, Z)
    for a in ring.basis:
        for b in ring.basis:
            assert ring.product(a.id, b.id) == {}
    formula = gcps_cohomology([Sphere(1), Sphere(1), Sphere(2)])
    assert compare_invariants(ring, formula).is_consistent


def test_s2xs2_cup_ring():
    P = product_complex(sphere_complex(2), sphere_complex(2))
    ring_q = cup_ring_of_complex(P, Q)
    inv = pairing_invariants(ring_q, 2, 2)
    assert inv.form_rank == 2
    ring_z = cup_ring_of_complex(P, Z)
    formula = cps_cohomology(Product(Sphere(2), Sphere(2)))
    assert compare_invariants(ring_z, formula).is_consistent


def test_genus2_cup_ring():
    G2 = connected_sum_with_maps(torus(), torus(), 2)[0]
    ring = cup_ring_of_complex(G2, Z)
    inv = pairing_invariants(ring, 1, 1)
    assert inv.form_divisors == (1, 1, 1, 1)
    formula = cps_cohomology(
        ConnSum(Product(Sphere(1), Sphere(1)), Product(Sphere(1), Sphere(1)))
    )
    assert compare_invariants(ring, formula).is_consistent


def test_projective_plane_cup_rings():
    # H_1 = Z/2: the integral table misses H^1 and H^2 over Z/2, so Z/p
    # rings are refused like the integral one
    K = rp2()
    for R in (Z, Z2):
        with pytest.raises(ValueError, match="degree 2 has torsion"):
            cup_ring_of_complex(K, R)
    ring_q = cup_ring_of_complex(K, Q)
    assert ring_q.free_ranks() == (1, 0, 0)


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: product_complex(rp2(), sphere_complex(1)), [(1, 1, 0, 0), (1, 2, 0, 0)]),
        (lambda: wedge_complexes([rp2(), torus()])[0], [(1, 1, 1, 2)]),
        (
            lambda: product_complex(rp2(), torus()),
            [(1, 1, 1, 2), (1, 2, 0, 0), (1, 3, 0, 0), (2, 2, 0, 0)],
        ),
    ],
    ids=["rp2-x-circle", "rp2-wedge-torus", "rp2-x-torus"],
)
def test_rational_pairings_with_torsion_relations(build, expected):
    # H_1 = Z/2 (+ free part) gives the cocycle solvers a non-unit boundary
    # to relate while classes are present; (p, q, map rank, form rank)
    ring = cup_ring_of_complex(build(), Q)
    top = ring.top_degree
    found = []
    for p in range(1, top):
        for q in range(p, top - p + 1):
            inv = pairing_invariants(ring, p, q)
            found.append((p, q, inv.map_rank, inv.form_rank))
    assert found == expected


def test_mod_three_moore_space_refuses_torsion_cup_rings():
    # a degree-3 circle map's cylinder with a cone on its domain has
    # H_1 = Z/3; every ring but Q is refused, Z/2 too, though 2 does not
    # divide the torsion
    G = moore_three()
    assert homology_of_complex(G, Z).torsion_at(1) == (3,)
    assert homology_of_complex(G, Z3).free_ranks == (1, 1, 1)
    for R in (Z, Z2, Z3):
        with pytest.raises(ValueError, match="torsion"):
            cup_ring_of_complex(G, R)
    assert cup_ring_of_complex(G, Q).free_ranks() == (1, 0, 0)


def test_cup_ring_padded_top_degree():
    W = wedge_complexes([sphere_complex(1)])[0]
    ring = cup_ring_of_complex(W, Z, top_degree=3)
    assert ring.top_degree == 3
    assert ring.free_ranks() == (1, 1, 0, 0)


def test_cup_ring_disconnected_rejected():
    two = _disjoint_union(sphere_complex(1), sphere_complex(1))[0]
    with pytest.raises(ValueError, match="connected"):
        cup_ring_of_complex(two, Z)


def _all_pairings(ring):
    top = ring.top_degree
    return {
        (p, q): pairing_invariants(ring, p, q)
        for p in range(1, top)
        for q in range(1, top - p + 1)
    }


def test_shared_integral_solver_leaves_field_rings_unchanged():
    def three_torus():
        return product_complex(torus(), sphere_complex(1))

    # each field ring alone on a fresh complex builds its own solvers
    cold = {R: _all_pairings(cup_ring_of_complex(three_torus(), R)) for R in (Q, Z2, Z3)}
    K = three_torus()
    cup_ring_of_complex(K, Z)
    assert chain_complex_of(K)._products
    warm = {R: _all_pairings(cup_ring_of_complex(K, R)) for R in (Q, Z2, Z3)}
    assert warm == cold
    assert cold[Q][(1, 1)].map_rank == 3


def test_cached_integral_solver_still_checks_rank():
    cx = chain_complex_of(torus())
    assert _build_integral_solver(cx, 1, 2).rank == 2
    with pytest.raises(RuntimeError, match="rank 3 expected"):
        _build_integral_solver(cx, 1, 3)


def test_derived_field_rings_match_the_formula_rings():
    # Q and Z/p rings are the integral table read over the field
    K = torus()
    for R in (Q, Z2, Z3):
        derived = cup_ring_of_complex(K, R)
        formula = cps_cohomology(Product(Sphere(1), Sphere(1))).over(R)
        assert compare_invariants(derived, formula).is_consistent
        assert _all_pairings(derived)[(1, 1)].map_rank == 1


def test_integral_coordinates_reject_non_cocycles():
    # no single edge of the torus is a cocycle: each one's cycle values
    # leave the class lattice
    cx = chain_complex_of(torus())
    solver = _build_integral_solver(cx, 1, 2)
    n = cx.dim_at(1)
    for e in range(n):
        with pytest.raises(RuntimeError, match="not a cocycle"):
            solver.coordinates([1 if t == e else 0 for t in range(n)])
    assert [solver.coordinates(rep) for rep in solver.reps] == [[1, 0], [0, 1]]


def test_integral_coordinates_test_the_residue_columns():
    # RP^2's second boundary keeps one residue column (H_1 = Z/2).  A
    # cochain built as the solver builds its classes kills every unit
    # column; unless it also kills the residue it is no cocycle, and the
    # cocycle test must say so before the class lattice is read
    cx = chain_complex_of(rp2())
    above = cx.reduction(2)
    assert [col[r] for r, col in above.residue] == [2]
    solver = _build_integral_solver(cx, 1, 0)
    raised = 0
    for d in cx.reduction(1).kernel_dual_rows:
        vec = [d.get(t, 0) for t in range(cx.dim_at(1))]
        for r, b in reversed(above.units.items()):
            vec[r] = -sum(v * vec[t] for t, v in b.items())
        if any(sum(v * vec[t] for t, v in b.items()) for _, b in above.residue):
            with pytest.raises(RuntimeError, match="not a cocycle"):
                solver.coordinates(vec)
            raised += 1
        else:
            assert solver.coordinates(vec) == []
    assert raised


def test_integral_product_table_cached_per_top_degree():
    def three_torus():
        return product_complex(torus(), sphere_complex(1))

    K = three_torus()
    low = cup_ring_of_complex(K, Z, top_degree=2)
    full = cup_ring_of_complex(K, Z)
    assert set(chain_complex_of(K)._products) == {2, 3}
    assert cup_ring_of_complex(K, Q).products == cup_ring_of_complex(three_torus(), Q).products
    assert low.products == cup_ring_of_complex(three_torus(), Z, top_degree=2).products
    assert full.products == cup_ring_of_complex(three_torus(), Z).products
    assert len(low.products) < len(full.products)
