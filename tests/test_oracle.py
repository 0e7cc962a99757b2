"""Oracle tests: tier-1 chain models, tier-2 simplicial models, verification
reports.  The point here is independence: expected values are classical or
frozen from the assembled models, never read back from the formula engine,
and one test deliberately corrupts the engine to prove mismatches surface.
"""

import json
import random
from collections import Counter

import pytest
from test_simplicial import rp2

from reeb_bubble import calculus as calculus_module
from reeb_bubble import coefficients as coefficients_module
from reeb_bubble import descriptor as descriptor_module
from reeb_bubble import graded as graded_module
from reeb_bubble import oracle as oracle_module
from reeb_bubble import simplicial as simplicial_module
from reeb_bubble.calculus import homology_of_descriptor
from reeb_bubble.coefficients import CoefficientRing
from reeb_bubble.descriptor import (
    BaseSpec,
    BubblingRecord,
    RecordKind,
    ReebDescriptor,
    SphereSpec,
    base_sphere_classes,
)
from reeb_bubble.graded import GradedModule, Product, Sphere, pairing_invariants
from reeb_bubble.oracle import (
    TierError,
    assemble_chain_complex,
    chain_model,
    format_report,
    simplicial_model,
    tier2_obstruction,
    verify_descriptor,
)
from reeb_bubble.simplicial import (
    cup_ring_of_complex,
    euler_characteristic,
    homology_of_complex,
)

Z = CoefficientRing.integers()
Q = CoefficientRing.rationals()
Z2 = CoefficientRing.prime_field(2)
Z3 = CoefficientRing.prime_field(3)
RINGS = [Z, Q, Z2, Z3]


def desc(n, handles, records):
    return ReebDescriptor(BaseSpec(n, tuple(handles)), tuple(records))


def record(kind, *spheres):
    return BubblingRecord(kind, tuple(spheres))


def random_descriptor(rng, n=None):
    n = n or rng.randint(2, 5)
    handles = [Sphere(rng.randint(1, n - 1)) for _ in range(rng.randint(0, 3))]
    classes = base_sphere_classes(desc(n, handles, []))
    records = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(list(RecordKind))
        if kind.is_point:
            records.append(record(kind))
            continue
        arity = 1 if kind.is_normal else rng.randint(0, 2)
        spheres = []
        for _ in range(arity):
            dim = 0 if n < 3 else rng.randint(0, n - 2)
            coeffs = {}
            if dim >= 1:
                for ident, deg in classes:
                    if deg == dim and rng.random() < 0.6:
                        c = rng.randint(-3, 3)
                        if c:
                            coeffs[ident] = c
            spheres.append(SphereSpec(dim, coeffs))
        records.append(record(kind, *spheres))
    return desc(n, handles, records)


# ---------------------------------------------------------------------------
# tier 1: assembled chain complexes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_point_record_assembles_to_sphere(n):
    got = chain_model(desc(n, [], [record(RecordKind.POINT)]), Z)
    assert got.free_ranks == (1,) + (0,) * (n - 1) + (1,)
    assert got.is_free


def test_circle_base_one_sphere_ranks():
    d = desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": 2}))])
    got = chain_model(d, Z)
    assert got.free_ranks == (1, 1, 1, 1)
    assert got.is_free


def test_empty_descriptor_is_a_point():
    got = chain_model(desc(3, [], []), Z)
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
            cols = cx.dim_at(k)
            for i in range(len(a)):
                for j in range(cols):
                    s = sum(a[i].get(t, 0) * b[t].get(j, 0) for t in range(len(b)))
                    assert s == 0


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_tier1_matches_formulas_on_random_descriptors(ring):
    rng = random.Random(23)
    for _ in range(12):
        d = random_descriptor(rng)
        expected = homology_of_descriptor(d, ring)
        got = chain_model(d, ring)
        top = max(expected.max_degree, got.max_degree)
        for k in range(top + 1):
            assert got.rank(k) == expected.rank(k), (d, k)
            assert got.torsion_at(k) == expected.torsion_at(k), (d, k)


def test_tier1_ignores_record_order():
    a = record(RecordKind.M, SphereSpec(1, {"nu1": 2}))
    b = record(RecordKind.S, SphereSpec(2, {"nu2": -1}))
    c = record(RecordKind.POINT)
    base = [Sphere(1), Sphere(2)]
    fwd = chain_model(desc(4, base, [a, b, c]), Z)
    rev = chain_model(desc(4, base, [c, b, a]), Z)
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
    from reeb_bubble.graded import ConnSum

    torus = Product(Sphere(1), Sphere(1))
    d = desc(4, [ConnSum(torus, torus)], [])
    assert "connected-sum" in tier2_obstruction(d)
    with pytest.raises(TierError):
        simplicial_model(d)


def test_zero_coefficient_spheres_only_target_wedge_point():
    d = desc(3, [Sphere(1)], [record(RecordKind.S, SphereSpec(1, {}))])
    K = simplicial_model(d)
    assert homology_of_complex(K, Z).free_ranks == (1, 1, 1, 1)


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


def _torsion_free_model_descriptor():
    return desc(
        3,
        [Sphere(1), Sphere(1)],
        [
            record(RecordKind.M, SphereSpec(1, {"nu1": 2})),
            record(RecordKind.M, SphereSpec(1, {"nu2": -1})),
        ],
    )


@pytest.mark.parametrize("rings", [[Z], RINGS], ids=["Z", "four-rings"])
def test_verify_builds_each_base_ring_once(monkeypatch, rings):
    # every ring asks the formula side for its expected homology and its
    # presentation, and the Euler check asks once more: none of these
    # queries may build the base ring or validate the descriptor again
    d = _torsion_free_model_descriptor()
    calls = {"base_cohomology": 0, "validate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    base = counted("base_cohomology", descriptor_module.base_cohomology)
    for mod in (descriptor_module, calculus_module, oracle_module):
        monkeypatch.setattr(mod, "base_cohomology", base)
    monkeypatch.setattr(
        descriptor_module, "validate", counted("validate", descriptor_module.validate)
    )
    rep = verify_descriptor(d, rings)
    assert rep.tier == 2 and rep.ok
    # validation builds no ring: one base ring per coefficient ring
    assert calls["base_cohomology"] <= len(rings)
    assert calls["validate"] == 1


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
    real = oracle_module._homology

    def corrupted(dd, base, R):
        mod = real(dd, base, R)
        ranks = list(mod.free_ranks)
        ranks[1] += 1
        return GradedModule(R, tuple(ranks), mod.torsion)

    monkeypatch.setattr(oracle_module, "_homology", corrupted)
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
