"""Oracle tests: tier-1 chain models, tier-2 simplicial models, verification
reports.  The point here is independence: expected values are classical or
frozen from the assembled models, never read back from the formula engine,
and one test deliberately corrupts the engine to prove mismatches surface.
"""

import hashlib
import json
import random
from collections import Counter
from dataclasses import replace

import pytest
from helpers import (
    catalog_entry,
    desc,
    full_simplex,
    random_descriptor,
    random_expr,
    record,
    tier2_entries,
)
from test_simplicial import rp2

from reeb_bubble import calculus as calculus_module
from reeb_bubble import cli as cli_module
from reeb_bubble import coefficients as coefficients_module
from reeb_bubble import descriptor as descriptor_module
from reeb_bubble import graded as graded_module
from reeb_bubble import oracle as oracle_module
from reeb_bubble import simplicial as simplicial_module
from reeb_bubble.calculus import cohomology_ring_of_descriptor, homology_of_descriptor
from reeb_bubble.catalog import ENTRIES, plan_descriptor, random_descriptors, random_plans
from reeb_bubble.cli import main as cli_main
from reeb_bubble.coefficients import CoefficientRing
from reeb_bubble.descriptor import (
    BaseSpec,
    RecordKind,
    SphereSpec,
    parse_descriptor,
    serialize_descriptor,
)
from reeb_bubble.graded import (
    ConnSum,
    GradedModule,
    PresentedGradedRing,
    Product,
    Sphere,
    dimension,
    gcps_cohomology,
    pairing_invariants,
)
from reeb_bubble.oracle import (
    TierError,
    assemble_chain_complex,
    format_report,
    simplicial_model,
    tier2_obstruction,
    verify_descriptor,
)
from reeb_bubble.simplicial import (
    SimplicialComplex,
    SimplicialMap,
    connected_sum_with_maps,
    cup_ring_of_complex,
    degree_map,
    euler_characteristic,
    glue_along,
    homology_of_chain_complex,
    homology_of_complex,
    mapping_cylinder,
    polygon_complex,
    product_complex,
    sphere_complex,
    suspension_complex,
    wedge_complexes,
)

Z = CoefficientRing.integers()
Q = CoefficientRing.rationals()
Z2 = CoefficientRing.prime_field(2)
Z3 = CoefficientRing.prime_field(3)
RINGS = [Z, Q, Z2, Z3]


# ---------------------------------------------------------------------------
# tier 1: assembled chain complexes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_point_record_assembles_to_sphere(n):
    d = desc(n, [], [record(RecordKind.POINT)])
    got = homology_of_chain_complex(assemble_chain_complex(d), Z)
    assert got.free_ranks == (1,) + (0,) * (n - 1) + (1,)
    assert got.is_free


def test_circle_base_one_sphere_ranks():
    d = desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": 2}))])
    got = homology_of_chain_complex(assemble_chain_complex(d), Z)
    assert got.free_ranks == (1, 1, 1, 1)
    assert got.is_free


def test_empty_descriptor_is_a_point():
    got = homology_of_chain_complex(assemble_chain_complex(desc(3, [], [])), Z)
    assert got.rank(0) == 1
    assert all(got.rank(k) == 0 for k in range(1, 4))


def test_assembled_boundaries_compose_to_zero():
    rng = random.Random(11)
    for _ in range(5):
        cx = assemble_chain_complex(random_descriptor(rng))
        for k in range(2, len(cx.boundaries)):
            a, b = cx.boundaries[k - 1], cx.boundaries[k]
            if not a or not b:
                continue
            for i in range(cx.dim_at(k - 2)):
                for j in range(len(b)):
                    s = sum(a[t].get(i, 0) * b[j].get(t, 0) for t in range(len(a)))
                    assert s == 0


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_tier1_matches_formulas_on_random_descriptors(ring):
    rng = random.Random(23)
    for _ in range(12):
        d = random_descriptor(rng)
        expected = homology_of_descriptor(d, ring)
        got = homology_of_chain_complex(assemble_chain_complex(d), ring)
        top = max(expected.max_degree, got.max_degree)
        for k in range(top + 1):
            assert got.rank(k) == expected.rank(k), (d, k)
            assert got.torsion_at(k) == expected.torsion_at(k), (d, k)


def test_tier1_ignores_record_order():
    a = record(RecordKind.M, SphereSpec(1, {"nu1": 2}))
    b = record(RecordKind.S, SphereSpec(2, {"nu2": -1}))
    c = record(RecordKind.POINT)
    base = [Sphere(1), Sphere(2)]
    fwd = homology_of_chain_complex(assemble_chain_complex(desc(4, base, [a, b, c])), Z)
    rev = homology_of_chain_complex(assemble_chain_complex(desc(4, base, [c, b, a])), Z)
    assert fwd.free_ranks == rev.free_ranks
    assert fwd.torsion == rev.torsion


# ---------------------------------------------------------------------------
# tier 2: simplicial models
# ---------------------------------------------------------------------------


def test_unimodular_coefficient_pairing():
    d = desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": 1}))])
    K = simplicial_model(d)
    assert homology_of_complex(K, Z).free_ranks == (1, 1, 1, 1)
    ring = cup_ring_of_complex(K, Z, top_degree=3)
    assert pairing_invariants(ring, 1, 2).map_divisors == (1,)


def test_coefficient_two_pairing_across_rings():
    d = desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": 2}))])
    K = simplicial_model(d)
    over_z = cup_ring_of_complex(K, Z, top_degree=3)
    assert pairing_invariants(over_z, 1, 2).map_divisors == (2,)
    over_q = cup_ring_of_complex(K, Q, top_degree=3)
    assert pairing_invariants(over_q, 1, 2).map_rank == 1
    over_z2 = cup_ring_of_complex(K, Z2, top_degree=3)
    assert pairing_invariants(over_z2, 1, 2).map_rank == 0


def test_bouquet_record_stays_connected():
    # two spheres in one record: exactly one new H_1 rank per sphere,
    # no extra loop from the shared generating polyhedron
    d = desc(3, [Sphere(1)], [record(
        RecordKind.M,
        SphereSpec(1, {"nu1": 2}),
        SphereSpec(1, {"nu1": -1}),
    )])
    K = simplicial_model(d)
    for ring in RINGS:
        assert homology_of_complex(K, ring).free_ranks == (1, 1, 2, 1)


def test_chain_of_four_spheres():
    d = desc(3, [Sphere(1)], [record(
        RecordKind.M,
        SphereSpec(1, {"nu1": 1}),
        SphereSpec(1, {}),
        SphereSpec(1, {"nu1": -2}),
        SphereSpec(1, {"nu1": 3}),
    )])
    rep = verify_descriptor(d, RINGS, tier=2)
    assert rep.ok, format_report(rep)


def test_euler_characteristic_matches_betti_numbers():
    d = desc(4, [Sphere(2)], [record(RecordKind.M, SphereSpec(2, {"nu1": 3}))])
    K = simplicial_model(d)
    betti = homology_of_descriptor(d, Q).free_ranks
    assert euler_characteristic(K) == sum(
        (-1) ** i * b for i, b in enumerate(betti)
    )


def test_multi_target_sphere_is_tier1_only():
    d = desc(
        3,
        [Sphere(1), Sphere(1)],
        [record(RecordKind.M, SphereSpec(1, {"nu1": 1, "nu2": 1}))],
    )
    assert "multi-target" in tier2_obstruction(d)
    with pytest.raises(TierError):
        simplicial_model(d)


def test_connsum_core_is_tier1_only():
    torus = Product(Sphere(1), Sphere(1))
    d = desc(4, [ConnSum(torus, torus)], [])
    assert "connected-sum" in tier2_obstruction(d)
    with pytest.raises(TierError):
        simplicial_model(d)


def test_zero_coefficient_spheres_only_target_wedge_point():
    d = desc(3, [Sphere(1)], [record(RecordKind.S, SphereSpec(1, {}))])
    K = simplicial_model(d)
    assert homology_of_complex(K, Z).free_ranks == (1, 1, 1, 1)


@pytest.mark.parametrize(
    "name, simplices",
    [
        ("circle-pair-unimodular", 168),
        ("normal-point-mix", 197),
        ("torus-core-bubble-n4", 806),
        ("deep-schedule-n5", 8444),
    ],
)
def test_unit_coefficient_records_glue_without_a_cylinder(name, simplices):
    # a lone sphere with coefficient +-1 lands on its carrier directly;
    # routing it through a mapping cylinder as well more than doubles these
    K = simplicial_model(catalog_entry(name).descriptor)
    assert len(K.simplices) == simplices


@pytest.mark.parametrize(
    "name, digest",
    [
        ("bouquet-two-circles", "a6c108d0791d5ccdb680e6778c7c3e549d3b97fbb0d81ce2a4d0b55039a21be1"),
        ("bouquet-silent-wing", "2350d94f31c876a63640f066b4ec6276beba9990666c45208a8d427bd8f00e1a"),
        ("circle-pair-doubled", "d32862d807b414c7da4a287b87afb4024a2c240c9d9ca3fb39daa3250445495d"),
        # two connected sums and a three-dome bouquet
        ("bouquet-three-spheres", "e30331a72fe4f350a604d14c7d97cf9a57d56c8d5314740fc226487823ccccfb"),
        # a product core in the base wedge
        ("torus-core-bubble", "a7eddd934a0eb0e4244bddee5015fac5da7585eab1cefb11d4f625de726edbb0"),
    ],
    ids=[
        "bouquet-two-circles",
        "bouquet-silent-wing",
        "circle-pair-doubled",
        "bouquet-three-spheres",
        "torus-core-bubble",
    ],
)
def test_models_keep_their_simplices(name, digest):
    # vertex i is the i-th vertex in the model's order: these digests of
    # the sorted simplices pin the whole model, not only its size
    K = simplicial_model(catalog_entry(name).descriptor)
    assert K.vertices == tuple(range(len(K.vertices)))
    assert hashlib.sha256(repr(sorted(K.simplices)).encode()).hexdigest() == digest


def test_constructors_off_the_models_keep_their_simplices():
    # the connected sum without join vertices and a wedge at basepoints
    # other than vertex 0, which no model builds
    S1, S2 = sphere_complex(1), sphere_complex(2)
    torus = product_complex(S1, S1)
    for K, size, digest in [
        (
            connected_sum_with_maps(torus, torus, 2)[0],
            15,
            "06ff6f159ad2932e763a9dc1bb942a84cbe6b78f649651495d9f21d231e4ecf6",
        ),
        (
            wedge_complexes([S1, S2], basepoints=[2, 1])[0],
            6,
            "bf800a08e75b1877a3e1b5800f984d2bff375c8850fd1ca24f013972eee5ecd1",
        ),
    ]:
        assert K.vertices == tuple(range(size))
        assert hashlib.sha256(repr(sorted(K.simplices)).encode()).hexdigest() == digest


def test_every_constructor_numbers_its_vertices_in_order():
    # every constructor's output passes the full validation: int vertices
    # in strictly increasing order, sorted simplices, closed under faces
    S1, S2 = sphere_complex(1), sphere_complex(2)
    torus = product_complex(S1, S1)
    f = degree_map(2, 2)
    edge = SimplicialComplex.from_facets((0, 1), [(0, 1)])
    built = [
        S2,
        polygon_complex(5),
        full_simplex(3),
        torus,
        product_complex(polygon_complex(4), full_simplex(1)),
        wedge_complexes([S1, S2], basepoints=[2, 1])[0],
        suspension_complex(S1),
        connected_sum_with_maps(torus, torus, 2)[0],
        connected_sum_with_maps(S2, S2, 2, join_K=0, join_L=3)[0],
        mapping_cylinder(f)[0],
        mapping_cylinder(SimplicialMap(S1, full_simplex(0), {v: 0 for v in S1.vertices}))[0],
        glue_along(torus, torus.restrict_full([0]), S2, S2.restrict_full([2]), {0: 2})[0],
        glue_along(edge, edge.restrict_full([1]), edge, edge.restrict_full([0]), {1: 0})[0],
        f.domain,
    ]
    built += [simplicial_model(e.descriptor) for e in tier2_entries()]
    for K in built:
        SimplicialComplex(K.vertices, K.simplices, check=True)


@pytest.mark.parametrize(
    "name, simplices",
    [
        ("bouquet-two-circles", 525),
        ("bouquet-silent-wing", 343),
        ("bouquet-three-spheres", 3803),
    ],
)
def test_bouquet_records_attach_along_one_wedge_vertex(name, simplices):
    # a record's spheres all meet at one vertex over the wedge point, and
    # a +-1 sphere among several maps by the three-vertex winding
    K = simplicial_model(catalog_entry(name).descriptor)
    assert len(K.simplices) == simplices


@pytest.mark.parametrize(
    "d, simplices",
    [
        (desc(3, [Sphere(1)], [record(
            RecordKind.M,
            SphereSpec(1, {"nu1": 1}),
            SphereSpec(1, {"nu1": -1}),
            SphereSpec(1, {"nu1": 1}),
        )]), 504),
        (desc(4, [Sphere(2), Sphere(1)], [record(
            RecordKind.M,
            SphereSpec(2, {"nu1": -1}),
            SphereSpec(1, {"nu2": 1}),
            SphereSpec(2, {"nu1": 1}),
        )]), 2445),
    ],
    ids=["n3-three-circles", "n4-mixed-dims"],
)
def test_all_unit_bouquets_verify_at_tier2(d, simplices):
    # every +-1 sphere among several maps by the three-vertex winding
    assert len(simplicial_model(d).simplices) == simplices
    rep = verify_descriptor(d, RINGS, tier=2)
    assert rep.tier == 2 and rep.ok, format_report(rep)


@pytest.mark.parametrize("n, l", [(3, 1), (4, 2)])
def test_explicit_zero_coefficient_maps_to_the_wedge_point(n, l):
    d = desc(n, [Sphere(l)], [record(RecordKind.M, SphereSpec(l, {"nu1": 0}))])
    rep = verify_descriptor(d, RINGS, tier=2)
    assert rep.tier == 2 and rep.ok, format_report(rep)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


def test_verify_auto_uses_tier2_when_supported():
    d = desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": 2}))])
    rep = verify_descriptor(d, RINGS)
    assert rep.tier == 2
    assert rep.ok
    assert rep.euler_match is True
    assert all(v.ring_match is True for v in rep.verdicts)


def test_verify_auto_falls_back_to_tier1():
    d = desc(
        3,
        [Sphere(1), Sphere(1)],
        [record(RecordKind.M, SphereSpec(1, {"nu1": 1, "nu2": -2}))],
    )
    rep = verify_descriptor(d, [Z, Q])
    assert rep.tier == 1
    assert rep.ok
    assert all(v.ring_match is None for v in rep.verdicts)
    with pytest.raises(TierError):
        verify_descriptor(d, [Z], tier=2)


def test_verify_forced_tier1_skips_simplicial():
    d = desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": 1}))])
    rep = verify_descriptor(d, [Z], tier=1)
    assert rep.tier == 1
    assert rep.euler_match is None


@pytest.mark.parametrize("tier", [True, 2.0, "3", 3, None], ids=repr)
def test_verify_rejects_a_tier_that_is_not_1_2_or_auto(tier):
    # True == 1 once ran tier 1 silently, also where "auto" runs tier 2
    d = catalog_entry("projected-disc").descriptor
    assert verify_descriptor(d, [Z]).tier == 2
    with pytest.raises(ValueError, match=f"unknown tier {tier!r}"):
        verify_descriptor(d, [Z], tier=tier)


@pytest.mark.parametrize("tier", [1, 2])
def test_verify_without_a_ring_raises_before_building(monkeypatch, tier):
    # a report with no verdict would read ok having checked nothing
    d = ENTRIES[0].descriptor
    assert tier2_obstruction(d) is None
    built = []
    for name in ("simplicial_model", "assemble_chain_complex", "cohomology_ring_of_descriptor"):
        monkeypatch.setattr(oracle_module, name, lambda *args, _name=name: built.append(_name))
    for rings in ([], (), iter([])):
        with pytest.raises(ValueError, match="at least one coefficient ring"):
            verify_descriptor(d, rings, tier=tier)
    assert built == []


def _torsion_free_model_descriptor():
    return desc(
        3,
        [Sphere(1), Sphere(1)],
        [
            record(RecordKind.M, SphereSpec(1, {"nu1": 2})),
            record(RecordKind.M, SphereSpec(1, {"nu2": -1})),
        ],
    )


def _count_base_rings_and_validations(monkeypatch):
    """Counts of base ring builds and of validations from now on."""
    calls = {"base_cohomology": 0, "validate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    base = counted("base_cohomology", descriptor_module.base_cohomology)
    for mod in (descriptor_module, calculus_module):
        monkeypatch.setattr(mod, "base_cohomology", base)
    # descriptors validate themselves through this binding when built
    monkeypatch.setattr(
        descriptor_module, "validate", counted("validate", descriptor_module.validate)
    )
    return calls


@pytest.mark.parametrize("rings", [[Z], RINGS], ids=["Z", "four-rings"])
def test_verify_builds_each_base_ring_once(monkeypatch, rings):
    # a tier-2 verify builds the base ring once, for the integral formula
    # ring, and never validates: the descriptor was validated when built
    d = _torsion_free_model_descriptor()
    calls = _count_base_rings_and_validations(monkeypatch)
    rep = verify_descriptor(d, rings)
    assert rep.tier == 2 and rep.ok
    assert calls == {"base_cohomology": 1, "validate": 0}


def test_tier1_verify_builds_no_ring(monkeypatch):
    # the expected homology and the tier-1 complex read the base classes
    # off the handle expressions
    d = _torsion_free_model_descriptor()
    calls = _count_base_rings_and_validations(monkeypatch)
    rep = verify_descriptor(d, RINGS, tier=1)
    assert rep.tier == 1 and rep.ok
    assert calls == {"base_cohomology": 0, "validate": 0}


def _count_walks_and_node_checks(monkeypatch):
    """Counts of calls, recursive ones included, of the base walk and of
    the expression check from now on: one per expression node each time
    a handle is walked or checked."""
    calls = {"walk": 0, "validate_expr": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(descriptor_module, "_walk", counted("walk", descriptor_module._walk))
    check = counted("validate_expr", graded_module.validate_expr)
    for mod in (graded_module, descriptor_module):
        monkeypatch.setattr(mod, "validate_expr", check)
    return calls


def test_a_parsed_base_is_listed_once(monkeypatch):
    # 8 expression nodes: the connected sum, its two products, their four
    # spheres, and the 2-sphere core
    s1s2 = Product(Sphere(1), Sphere(2))
    text = serialize_descriptor(
        desc(
            4,
            [ConnSum(s1s2, s1s2), Sphere(2)],
            [record(RecordKind.M, SphereSpec(2, {"nu2": 3, "nu5": -1}))],
        )
    )
    calls = _count_walks_and_node_checks(monkeypatch)
    d = parse_descriptor(text)
    # validation checks each handle to name a bad one, then lists the base
    assert calls == {"walk": 8, "validate_expr": 16}

    calls.update(walk=0, validate_expr=0)
    assert verify_descriptor(d, RINGS, tier=1).ok
    assert calls == {"walk": 0, "validate_expr": 0}

    # the wedge builder checks its summands, which may be raw expressions
    cohomology_ring_of_descriptor(d, Z)
    assert calls == {"walk": 0, "validate_expr": 8}


def test_four_rings_eliminate_each_boundary_once(monkeypatch):
    # homology, the cocycle solvers and the fundamental cycles all read the
    # one cached reduction of each boundary matrix
    complexes = []
    init = simplicial_module.ChainComplexZ.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        complexes.append(self)

    monkeypatch.setattr(simplicial_module.ChainComplexZ, "__init__", recording_init)
    inputs = []  # holding the inputs keeps their ids unique
    depth = [0]

    def counted(fn):
        def wrapper(rows, *args, **kwargs):
            if not depth[0]:
                inputs.append(rows)
            depth[0] += 1
            try:
                return fn(rows, *args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    for mod in (coefficients_module, simplicial_module, graded_module):
        for name in ("sparse_column_reduction", "integer_elementary_divisors"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    rep = verify_descriptor(_torsion_free_model_descriptor(), RINGS)
    assert rep.tier == 2 and rep.ok
    seen = Counter(id(rows) for rows in inputs)
    boundaries = [m for cx in complexes for m in cx.boundaries[1:] if m]
    assert boundaries and any(seen[id(m)] for m in boundaries)
    assert all(seen[id(m)] <= 1 for m in boundaries)


def test_homology_is_read_once_per_chain_complex(monkeypatch):
    # the integral module is cached, and every other ring derives from it
    # without asking for a reduction
    d = _torsion_free_model_descriptor()
    complexes = [assemble_chain_complex(d), simplicial_module.chain_complex_of(simplicial_model(d))]
    over_z = [homology_of_chain_complex(cx, Z) for cx in complexes]
    calls = []
    real = simplicial_module.ChainComplexZ.reduction

    def counted(self, k):
        calls.append(k)
        return real(self, k)

    monkeypatch.setattr(simplicial_module.ChainComplexZ, "reduction", counted)
    for cx, hz in zip(complexes, over_z):
        assert homology_of_chain_complex(cx, Z) is hz
        for R in (Q, Z2, Z3):
            assert homology_of_chain_complex(cx, R).free_ranks == hz.free_ranks
        assert homology_of_chain_complex(cx, Z) is hz
    assert calls == []


def test_verify_builds_the_expected_homology_once(monkeypatch):
    calls = []
    real = oracle_module.homology_of_descriptor

    def counted(d, R):
        calls.append(R)
        return real(d, R)

    monkeypatch.setattr(oracle_module, "homology_of_descriptor", counted)
    rep = verify_descriptor(_torsion_free_model_descriptor(), RINGS)
    assert rep.tier == 2 and rep.ok and rep.euler_match
    assert calls == [Z]


def test_four_rings_evaluate_the_product_table_once(monkeypatch):
    d = _torsion_free_model_descriptor()
    assert homology_of_complex(simplicial_model(d), Z).is_free
    calls = []
    real = simplicial_module._DegreeSolver.coordinates

    def counted(self, vec):
        calls.append(len(vec))
        return real(self, vec)

    monkeypatch.setattr(simplicial_module._DegreeSolver, "coordinates", counted)
    assert verify_descriptor(d, [Z]).ok
    alone = len(calls)
    calls.clear()
    rep = verify_descriptor(d, RINGS)
    assert rep.tier == 2 and rep.ok
    assert alone and len(calls) == alone


@pytest.mark.parametrize("R", [Q, Z2, Z3], ids=["Q", "Z2", "Z3"])
def test_derived_rings_equal_rings_computed_alone(R):
    d = _torsion_free_model_descriptor()
    K = simplicial_model(d)
    over_z = cup_ring_of_complex(K, Z, top_degree=3)
    derived = cup_ring_of_complex(K, R, top_degree=3)
    alone = cup_ring_of_complex(simplicial_model(d), R, top_degree=3)
    assert derived.basis == alone.basis
    assert derived.products == alone.products
    assert over_z.products.keys() >= derived.products.keys()
    assert derived.products


def test_corrupted_formulas_produce_witnesses(monkeypatch):
    d = desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": 2}))])
    real = oracle_module.homology_of_descriptor

    def corrupted(dd, R):
        mod = real(dd, R)
        ranks = list(mod.free_ranks)
        ranks[1] += 1
        return GradedModule(R, tuple(ranks), mod.torsion)

    monkeypatch.setattr(oracle_module, "homology_of_descriptor", corrupted)
    rep = verify_descriptor(d, [Z], tier=1)
    assert not rep.ok
    v = rep.verdicts[0]
    assert not v.homology_match
    assert any("degree 1" in w and "expected rank 2" in w for w in v.witnesses)


def test_oracle_self_check_failure_becomes_witness(monkeypatch):
    d = desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": 2}))])

    def failing(K, R, top_degree=None):
        raise RuntimeError("degree 1: dual basis check failed")

    monkeypatch.setattr("reeb_bubble.oracle.cup_ring_of_complex", failing)
    rep = verify_descriptor(d, [Z, Z2])
    assert rep.tier == 2
    assert not rep.ok
    for v in rep.verdicts:
        assert v.homology_match
        assert v.ring_match is False
        assert v.witnesses == ("tier-2 oracle: degree 1: dual basis check failed",)


def test_formula_failure_becomes_witness(monkeypatch, capsys):
    # a formula ring that fails its own checks is a verdict on that ring,
    # in the report and in the catalog, not an exception
    message = "graded commutativity fails on (nu1,b1.1)"

    def failing(d, R):
        raise ValueError(message)

    monkeypatch.setattr("reeb_bubble.oracle.cohomology_ring_of_descriptor", failing)
    rep = verify_descriptor(catalog_entry("circle-pair-doubled").descriptor, RINGS)
    assert rep.tier == 2
    assert not rep.ok
    for v in rep.verdicts:
        assert v.homology_match
        assert v.ring_match is False
        assert v.witnesses == (f"formula: {message}",)
    assert cli_main(["catalog", "--only", "circle-pair"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH circle-pair-doubled" in out
    assert f"formula: {message}" in out


def test_oracle_refusal_becomes_witness(monkeypatch):
    # the projective plane has H_1 = Z/2, so its cup ring is refused over
    # Z, Z/2 and Z/3; each refusal lands in the report instead of raising
    monkeypatch.setattr(oracle_module, "simplicial_model", lambda d: rp2())
    rep = verify_descriptor(desc(2, [Sphere(1)], []), RINGS, tier=2)
    assert not rep.ok
    for v in rep.verdicts:
        assert v.ring_match is False and v.witnesses
    refused = [
        v.ring_label
        for v in rep.verdicts
        if any(w.startswith("tier-2 oracle: ") and "torsion" in w for w in v.witnesses)
    ]
    assert refused == ["Z", "Z/2", "Z/3"]


def test_report_serialization_shape():
    d = desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": 1}))])
    rep = verify_descriptor(d, [Z, Q])
    doc = rep.to_json()
    assert doc["ok"] is True
    assert doc["tier"] == 2
    assert {r["ring"] for r in doc["rings"]} == {"Z", "Q"}
    for r in doc["rings"]:
        assert r["homology_match"] is True
        assert r["witnesses"] == []
    json.dumps(doc)

    text = format_report(rep)
    assert "overall: ok" in text
    assert text.count("homology ok") == 2


def test_random_descriptors_verify_end_to_end():
    rng = random.Random(7)
    done = 0
    while done < 6:
        d = random_descriptor(rng, n=rng.randint(2, 4))
        if tier2_obstruction(d) is not None:
            continue
        if sum(len(r.spheres) for r in d.records) > 3:
            continue
        rep = verify_descriptor(d, [Z, Z2])
        assert rep.ok, format_report(rep)
        done += 1


# ---------------------------------------------------------------------------
# rings once over Z: one table per ring, derived pairings, counts
# ---------------------------------------------------------------------------


def _pairing_cells(top):
    return [(p, q) for p in range(1, top) for q in range(1, top - p + 1)]


def _small_tier2_draws():
    return [
        d for d in random_descriptors(0, 160) if d.n <= 3 and tier2_obstruction(d) is None
    ]


def _field_pairing_ranks(A, R, p, q):
    """The map's and the form's ranks over the field R, by ``field_reduce``
    on A's pairing matrices with every entry converted into R."""
    P, Q_, T = A.degree_basis(p), A.degree_basis(q), A.degree_basis(p + q)
    tindex = {e.id: t for t, e in enumerate(T)}
    map_cols, form_cols = [], [{} for _ in P]
    for i, a in enumerate(P):
        for j, b in enumerate(Q_):
            col = {}
            for ic, c in A.products.get((a.id, b.id), {}).items():
                if c := R.convert(c):
                    col[tindex[ic]] = c
                    form_cols[i][j * len(T) + tindex[ic]] = c
            map_cols.append(col)
    field_reduce = coefficients_module.field_reduce
    return tuple(field_reduce(R, [c for c in cols if c]) for cols in (map_cols, form_cols))


def _ring_command_rings(monkeypatch, tmp_path, descriptors):
    """Every ring whose pairings ``reeb-bubble ring`` reads, over Z, Q, Z/2
    and Z/3, for each descriptor."""
    rings = []
    real = cli_module.pairing_invariants

    def tapped(A, p, q):
        if not rings or rings[-1] is not A:
            rings.append(A)
        return real(A, p, q)

    monkeypatch.setattr(cli_module, "pairing_invariants", tapped)
    path, report = tmp_path / "d.json", tmp_path / "ring.json"
    flags = ["--ring", "Z", "--ring", "Q", "--ring", "Zp", "--p", "2", "--ring", "Zp", "--p", "3"]
    for d in descriptors:
        path.write_text(serialize_descriptor(d))
        assert cli_main(["ring", "-d", str(path), *flags, "--json", str(report)]) == 0
    return rings


@pytest.mark.parametrize("source", ["catalog", "draws", "ring-command"])
def test_field_pairings_equal_field_reduce_on_converted_matrices(monkeypatch, tmp_path, source):
    # every ring reads its pairings off the integral divisors of its one
    # table; the reference reduces each matrix into the field first and
    # eliminates it there
    if source == "ring-command":
        rings = _ring_command_rings(monkeypatch, tmp_path, [e.descriptor for e in ENTRIES])
        assert len(rings) == 4 * len(ENTRIES)
    else:
        pool = [e.descriptor for e in tier2_entries()] if source == "catalog" else _small_tier2_draws()
        assert pool
        rings = []
        for d in pool:
            formula = cohomology_ring_of_descriptor(d, Z).ring
            K = simplicial_model(d)
            for R in RINGS:
                rings += [formula.over(R), cup_ring_of_complex(K, R, top_degree=d.n)]
    fields = set()
    for A in rings:
        R = A.ring
        for p, q in _pairing_cells(A.top_degree):
            inv = pairing_invariants(A, p, q)
            if R.is_field:
                fields.add(R.label)
                assert (inv.map_rank, inv.form_rank) == _field_pairing_ranks(A, R, p, q), (A, p, q)
                assert inv.map_divisors is inv.form_divisors is None
            else:
                assert (inv.map_rank, inv.form_rank) == (len(inv.map_divisors), len(inv.form_divisors))
    assert fields == {"Q", "Z/2", "Z/3"}


def test_ring_command_checks_one_table_and_eliminates_each_matrix_once(monkeypatch, tmp_path):
    # four rings read one integral table: it is checked once, beside its
    # base ring, and each pairing matrix is eliminated once, over Z, as for
    # Z alone; no field elimination runs
    checked = []
    real_check = PresentedGradedRing._check

    def check(self):
        checked.append(self.ring)
        return real_check(self)

    eliminated = []
    real_divisors = graded_module.integer_elementary_divisors

    def divisors(columns):
        eliminated.append(len(columns))
        return real_divisors(columns)

    field_calls = []
    monkeypatch.setattr(PresentedGradedRing, "_check", check)
    monkeypatch.setattr(graded_module, "integer_elementary_divisors", divisors)
    monkeypatch.setattr(coefficients_module, "field_reduce", lambda *a: field_calls.append(a))
    path = tmp_path / "d.json"
    path.write_text(serialize_descriptor(_torsion_free_model_descriptor()))
    assert cli_main(["ring", "-d", str(path), "--json", str(tmp_path / "z.json")]) == 0
    alone = list(eliminated)
    checked.clear()
    eliminated.clear()
    flags = ["--ring", "Zp", "--p", "2", "--ring", "Q", "--ring", "Z", "--ring", "Zp", "--p", "3"]
    assert cli_main(["ring", "-d", str(path), *flags, "--json", str(tmp_path / "four.json")]) == 0
    assert checked == [Z, Z]  # the base wedge and the formula table
    assert alone and eliminated == alone
    assert field_calls == []


def _verdicts(rep):
    return {
        v.ring_label: (v.tier, v.homology_match, v.ring_match, v.witnesses)
        for v in rep.verdicts
    }


def test_ring_order_and_fields_only_give_the_same_verdicts():
    # the integral rings are built whether or not Z is asked for
    pool = [e.descriptor for e in tier2_entries() if e.descriptor.n <= 4]
    pool += _small_tier2_draws()[:20]
    for d in pool:
        first = _verdicts(verify_descriptor(d, RINGS))
        last = _verdicts(verify_descriptor(d, [Q, Z2, Z3, Z]))
        fields = _verdicts(verify_descriptor(d, [Z3, Z2, Q]))
        assert first == last
        assert fields == {k: v for k, v in first.items() if k != "Z"}


def test_verify_builds_and_checks_each_ring_once_over_z(monkeypatch):
    # a four-ring tier-2 verify: one formula presentation, over Z; one
    # check of each product table, over Z; no field elimination, and the
    # integral pairing matrices eliminated no more often than for Z alone
    d = _torsion_free_model_descriptor()
    presented = []
    real_presentation = oracle_module.cohomology_ring_of_descriptor

    def presentation(dd, R):
        presented.append(R)
        return real_presentation(dd, R)

    checked = []
    real_check = PresentedGradedRing._check

    def check(self):
        checked.append((self.ring, frozenset(e.id for e in self.basis)))
        return real_check(self)

    field_calls = []
    eliminated = []
    real_divisors = graded_module.integer_elementary_divisors

    def divisors(columns):
        eliminated.append(len(columns))
        return real_divisors(columns)

    monkeypatch.setattr(oracle_module, "cohomology_ring_of_descriptor", presentation)
    monkeypatch.setattr(PresentedGradedRing, "_check", check)
    monkeypatch.setattr(coefficients_module, "field_reduce", lambda *a: field_calls.append(a))
    monkeypatch.setattr(graded_module, "integer_elementary_divisors", divisors)
    assert verify_descriptor(d, [Z]).ok
    alone = len(eliminated)
    presented.clear()
    checked.clear()
    eliminated.clear()
    rep = verify_descriptor(d, RINGS)
    assert rep.tier == 2 and rep.ok
    assert presented == [Z]
    measured = [ring for ring, ids in checked if ids and all(i.startswith("c") for i in ids)]
    formula = [ring for ring, ids in checked if "t1" in ids]
    assert measured == [Z] and formula == [Z]
    assert {ring for ring, _ in checked} == {Z}
    assert field_calls == []
    assert alone and len(eliminated) == alone


def test_verify_asks_the_oracle_binding_for_every_ring(monkeypatch):
    # the benchmark's digest takes each ring's measured ring from this binding
    asked = []
    real = oracle_module.cup_ring_of_complex

    def tapped(K, R, top_degree=None):
        asked.append((R, top_degree))
        return real(K, R, top_degree=top_degree)

    monkeypatch.setattr(oracle_module, "cup_ring_of_complex", tapped)
    d = _torsion_free_model_descriptor()
    assert verify_descriptor(d, RINGS).ok
    assert asked == [(R, d.n) for R in RINGS]


def test_formula_sign_error_is_a_witness_on_every_ring(monkeypatch):
    # the table is wrong by one sign, which Z/2 cannot see: the check, made
    # over Z whatever ring labels the table, fails, and its witness lands on
    # every ring, Z/2 included, also when Z is not asked for
    d = _torsion_free_model_descriptor()
    real = oracle_module.cohomology_ring_of_descriptor

    def signed(dd, R):
        report = real(dd, R)
        A = report.ring
        products = dict(A.products)
        products[("nu2", "b2.1")] = {t: -c for t, c in products[("nu2", "b2.1")].items()}
        return replace(report, ring=PresentedGradedRing(R, A.top_degree, A.basis, products))

    for R in (Z, Z2):
        with pytest.raises(ValueError, match="graded commutativity"):
            signed(d, R)
    monkeypatch.setattr(oracle_module, "cohomology_ring_of_descriptor", signed)
    for rings in (RINGS, [Z2, Q]):
        rep = verify_descriptor(d, rings)
        assert rep.tier == 2 and not rep.ok
        for v in rep.verdicts:
            assert v.homology_match and v.ring_match is False
            assert v.witnesses == ("formula: graded commutativity fails on (nu2,b2.1)",)


def _doubled_circle_descriptor():
    return desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": 2}))])


def test_halved_formula_ring_gives_each_ring_its_own_witness(monkeypatch):
    # the formula multiplies nu1 by the bubbled class to 2 t1; halved, the
    # ring still passes its checks, and only Z and Z/2 can tell it apart
    real = oracle_module.cohomology_ring_of_descriptor

    def halved(dd, R):
        report = real(dd, R)
        A = report.ring
        products = {
            pair: {t: c // 2 for t, c in vec.items()} for pair, vec in A.products.items()
        }
        return replace(report, ring=PresentedGradedRing(R, A.top_degree, A.basis, products))

    d = _doubled_circle_descriptor()
    assert real(d, Z).ring.products[("nu1", "b1.1")] == {"t1": 2}
    monkeypatch.setattr(oracle_module, "cohomology_ring_of_descriptor", halved)
    for rings in (RINGS, [Z3, Z2, Q, Z]):
        rep = verify_descriptor(d, rings)
        assert rep.tier == 2 and not rep.ok
        assert all(v.homology_match for v in rep.verdicts)
        assert {v.ring_label: v.witnesses for v in rep.verdicts} == {
            "Z": ("ring invariants: pairing (1,2): divisors [1]/form [1] vs divisors [2]/form [2]",),
            "Q": (),
            "Z/2": ("ring invariants: pairing (1,2): rank 1/form rank 1 vs rank 0/form rank 0",),
            "Z/3": (),
        }


@pytest.mark.parametrize("tier", [1, 2])
def test_tier1_torsion_gives_witnesses_on_z_and_z2_only(monkeypatch, tier):
    # a 1-cell x and a 2-cell y with boundary 2x put Z/2 into H_1 of the
    # tier-1 complex: over Z it is torsion, over Z/2 one more class in
    # degrees 1 and 2, and over Q and Z/3 nothing
    real = oracle_module.assemble_chain_complex

    def with_torsion(dd):
        cx = real(dd)
        bases = [list(b) for b in cx.bases]
        boundaries = [list(m) for m in cx.boundaries]
        bases[1].append(("x",))
        boundaries[1].append({})
        bases[2].append(("y",))
        boundaries[2].append({len(bases[1]) - 1: 2})
        return simplicial_module.ChainComplexZ(bases, boundaries)

    d = _doubled_circle_descriptor()
    expected = homology_of_descriptor(d, Z)
    monkeypatch.setattr(oracle_module, "assemble_chain_complex", with_torsion)
    rep = verify_descriptor(d, RINGS, tier=tier)
    assert rep.tier == tier and not rep.ok
    witnesses = {v.ring_label: v.witnesses for v in rep.verdicts}
    assert witnesses["Z"] == ("tier-1 homology degree 1: expected torsion (), got (2,)",)
    assert witnesses["Z/2"] == tuple(
        f"tier-1 homology degree {k}: expected rank {expected.rank(k)}, "
        f"got {expected.rank(k) + 1}"
        for k in (1, 2)
    )
    assert witnesses["Q"] == witnesses["Z/3"] == ()
    for v in rep.verdicts:
        assert v.homology_match == (not v.witnesses)
        assert v.ring_match is (True if tier == 2 else None)


@pytest.mark.parametrize("tier", [1, 2])
def test_matching_verify_compares_once_over_z(monkeypatch, tier):
    # homology and rings are compared over Z alone; a ring derives its
    # verdict from that comparison and repeats none of it
    compared = []
    real_compare = oracle_module.compare_invariants

    def compare(A, B):
        compared.append(A.ring)
        return real_compare(A, B)

    homology = []
    real_homology = simplicial_module.homology_of_chain_complex

    def counted(cx, R):
        homology.append(R)
        return real_homology(cx, R)

    monkeypatch.setattr(oracle_module, "compare_invariants", compare)
    for mod in (oracle_module, simplicial_module):
        monkeypatch.setattr(mod, "homology_of_chain_complex", counted)
    # the second model is a wedge of dimension 2 < n, whose integral cup
    # ring stops below the top degree that every ring is asked at
    for d in (_torsion_free_model_descriptor(), desc(3, [Sphere(1), Sphere(2)], [])):
        compared.clear()
        homology.clear()
        rep = verify_descriptor(d, RINGS, tier=tier)
        assert rep.tier == tier and rep.ok
        assert [v.ring_label for v in rep.verdicts] == [R.label for R in RINGS]
        assert compared == ([Z] if tier == 2 else [])
        assert homology and set(homology) == {Z}


def test_cli_verify_builds_the_formula_ring_once(monkeypatch, tmp_path, capsys):
    # the command prints the pairings off the verify's checked formula ring
    path = tmp_path / "d.json"
    path.write_text(serialize_descriptor(catalog_entry("circle-pair-doubled").descriptor))
    calls = _count_base_rings_and_validations(monkeypatch)
    assert cli_main(["verify", "-d", str(path), "--ring", "Z", "--ring", "Q", "--tier", "2"]) == 0
    assert "pairing (1,2) over Q: rank 1" in capsys.readouterr().out
    assert calls == {"base_cohomology": 1, "validate": 1}


# ---------------------------------------------------------------------------
# base classes read off the handle expressions, checked two other ways
# ---------------------------------------------------------------------------


def _walked_bases():
    """The bases of the catalog, of both generator pools, of seeded nested
    cores of depth at most 2, and of every product of depth at most 2 with
    dimension at most 4."""
    bases = [e.descriptor.base for e in ENTRIES]
    bases += [d.base for d in random_descriptors(0, 160)]
    bases += [plan_descriptor(plan).base for plan in random_plans(0, 80)]
    rng = random.Random(2800)
    for _ in range(120):
        handles = tuple(
            random_expr(rng, rng.randint(1, 4), rng.randint(0, 2))
            for _ in range(rng.randint(1, 3))
        )
        bases.append(BaseSpec(max(map(dimension, handles)) + 1, handles))
    spheres = [Sphere(k) for k in range(1, 5)]
    products = spheres
    for _ in range(2):
        products = spheres + [
            Product(a, b) for a in products for b in products if dimension(a) + dimension(b) <= 4
        ]
    bases += [BaseSpec(dimension(h) + 1, (h,)) for h in products]
    return bases


def test_base_classes_match_the_ring_and_the_core_complexes():
    # the walk, the ring constructors and the tier-2 cores are three
    # independent readings of the same handle expressions
    bases = _walked_bases()
    cores = {}
    for base in bases:
        classes = base.classes
        ring = gcps_cohomology(base.handles)
        assert [k for _, k in classes] == [e.degree for e in ring.basis], base
        for h in base.handles:
            if not oracle_module._has_connsum(h):
                cores.setdefault(h, None)
    assert any(isinstance(h, Product) and isinstance(h.left, Product) for h in cores)
    for h in cores:
        ranks = [1] + [0] * dimension(h)
        for _, k in BaseSpec(dimension(h) + 1, (h,)).classes:
            ranks[k] += 1
        measured = homology_of_complex(oracle_module._expr_complex(h)[0], Z)
        assert measured.free_ranks == tuple(ranks) and measured.is_free, h
