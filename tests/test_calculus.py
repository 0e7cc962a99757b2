"""Formula engine tests: homology bookkeeping, ring presentations, planners,
manifold inference.  Structural rules are exercised on hand-picked and
seeded random descriptors; expected numbers are frozen from the bookkeeping
rules themselves and cross-checked independently by the oracle suite.
"""

import random

import pytest

from reeb_bubble import calculus as calculus_module
from reeb_bubble.calculus import (
    cohomology_ring_of_descriptor,
    homology_of_descriptor,
    manifold_inference,
    realize_plan,
    truncate_ring,
)
from reeb_bubble.coefficients import CoefficientRing
from reeb_bubble.descriptor import (
    BaseSpec,
    BubblingRecord,
    InvalidDescriptorError,
    RecordKind,
    ReebDescriptor,
    SphereSpec,
)
from reeb_bubble.graded import (
    ConnSum,
    GradedModule,
    PresentedGradedRing,
    Product,
    Sphere,
    compare_invariants,
    pairing_invariants,
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


REMARK_FAMILY = desc(
    3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": 2}))]
)


def random_descriptor(rng, n=None):
    n = n or rng.randint(2, 5)
    handles = []
    for _ in range(rng.randint(0, 3)):
        k = rng.randint(1, n - 1)
        handles.append(Sphere(k))
    d0 = desc(n, handles, [])
    from reeb_bubble.descriptor import base_sphere_classes

    classes = base_sphere_classes(d0)
    records = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(list(RecordKind))
        if kind.is_point:
            records.append(record(kind))
            continue
        arity = 1 if kind.is_normal else rng.randint(0, 2)
        spheres = []
        for _ in range(arity):
            if n < 3:
                dim = 0
            else:
                dim = rng.randint(0, n - 2)
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
# homology
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_point_record_gives_sphere_homology(n):
    d = desc(n, [], [record(RecordKind.POINT)])
    expected = (1,) + (0,) * (n - 1) + (1,)
    assert homology_of_descriptor(d, Z).free_ranks == expected


def test_one_sphere_record():
    d = desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {}))])
    assert homology_of_descriptor(d, Z).free_ranks == (1, 1, 1, 1)


def test_bare_base():
    d = desc(2, [Sphere(1), Sphere(1)], [])
    assert homology_of_descriptor(d, Z).free_ranks == (1, 2, 0)


def test_dim_zero_spheres_add_nothing():
    plain = desc(4, [], [record(RecordKind.M)])
    dotted = desc(4, [], [record(RecordKind.M, SphereSpec(0, {}), SphereSpec(0, {}))])
    assert (
        homology_of_descriptor(plain, Z).free_ranks
        == homology_of_descriptor(dotted, Z).free_ranks
        == (1, 0, 0, 0, 1)
    )


def test_invalid_descriptor_rejected():
    # rejected when built, before any formula can see it
    with pytest.raises(InvalidDescriptorError, match="invalid descriptor: ") as info:
        desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(2, {}))])
    assert info.value.violations == ["records[0].spheres[0]: dim 2 > n-2 = 1"]


def test_ring_ranks_are_checked_against_the_homology(monkeypatch):
    # the ring is built from the base ring, the homology from the walk of
    # the handle expressions; ranks that disagree are an internal fault
    real = calculus_module.homology_of_descriptor

    def shifted(d, R):
        ranks = list(real(d, R).free_ranks)
        ranks[1] += 1
        return GradedModule(R, tuple(ranks))

    monkeypatch.setattr(calculus_module, "homology_of_descriptor", shifted)
    with pytest.raises(RuntimeError, match="rank bookkeeping out of sync"):
        cohomology_ring_of_descriptor(REMARK_FAMILY, Z)


def test_homology_always_free_and_ring_independent():
    rng = random.Random(40)
    for _ in range(25):
        d = random_descriptor(rng)
        mods = [homology_of_descriptor(d, R) for R in RINGS]
        assert all(m.is_free for m in mods)
        assert len({m.free_ranks for m in mods}) == 1


# ---------------------------------------------------------------------------
# ring presentation
# ---------------------------------------------------------------------------


def test_remark_family_over_all_rings():
    rep = cohomology_ring_of_descriptor(REMARK_FAMILY, Z)
    assert rep.homology.free_ranks == (1, 1, 1, 1)
    assert rep.ring.product("nu1", "b1.1") == {"t1": 2}
    assert rep.ring.product("b1.1", "nu1") == {"t1": 2}
    assert pairing_invariants(rep.ring, 1, 2).map_divisors == (2,)
    assert pairing_invariants(cohomology_ring_of_descriptor(REMARK_FAMILY, Q).ring, 1, 2).map_rank == 1
    assert pairing_invariants(cohomology_ring_of_descriptor(REMARK_FAMILY, Z2).ring, 1, 2).map_rank == 0
    assert pairing_invariants(cohomology_ring_of_descriptor(REMARK_FAMILY, Z3).ring, 1, 2).map_rank == 1


def test_empty_coefficients_give_wedge_ring():
    d = desc(
        4,
        [Sphere(1), Sphere(2)],
        [record(RecordKind.M, SphereSpec(1, {}), SphereSpec(2, {}))],
    )
    ring = cohomology_ring_of_descriptor(d, Z).ring
    for a in ring.basis:
        for b in ring.basis:
            assert ring.product(a.id, b.id) == {}


def test_odd_degree_pairs_pick_up_koszul_sign():
    d = desc(4, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": 2}))])
    ring = cohomology_ring_of_descriptor(d, Z).ring
    assert ring.product("nu1", "b1.1") == {"t1": 2}
    assert ring.product("b1.1", "nu1") == {"t1": -2}


def test_record_class_map():
    d = desc(
        4,
        [Sphere(2)],
        [
            record(RecordKind.M, SphereSpec(2, {"nu1": 1}), SphereSpec(0, {})),
            record(RecordKind.POINT),
        ],
    )
    rep = cohomology_ring_of_descriptor(d, Z)
    first, second = rep.record_classes
    assert first.bubbled == ("b1.1", None)
    assert first.top == "t1"
    assert second.bubbled == ()
    assert second.top == "t2"
    degrees = {e.id: e.degree for e in rep.ring.basis}
    assert degrees["b1.1"] == 2 and degrees["t1"] == degrees["t2"] == 4


def test_inclusion_subtable_matches_base():
    d = desc(
        5,
        [Product(Sphere(1), Sphere(2)), Sphere(2)],
        [record(RecordKind.M, SphereSpec(2, {"nu2": 1, "nu3": -2}))],
    )
    from reeb_bubble.descriptor import base_cohomology

    base = base_cohomology(d.base, Z)
    ring = cohomology_ring_of_descriptor(d, Z).ring
    base_ids = {e.id for e in base.basis}
    for ia in base_ids:
        for ib in base_ids:
            assert ring.product(ia, ib) == base.product(ia, ib)
    incl = [e for e in ring.basis if e.provenance == ("inclusion",)]
    assert {e.id for e in incl} == base_ids


@pytest.mark.parametrize(
    "handles, rings_built",
    [
        # the wedge and the result; a sphere core builds no ring of its own
        ((Sphere(1), Sphere(2)), 2),
        # plus the product core: two sphere rings and their tensor ring
        ((Product(Sphere(1), Sphere(2)), Sphere(2)), 5),
    ],
)
def test_formula_ring_builds_each_ring_once(monkeypatch, handles, rings_built):
    counts = {"__init__": 0, "_check": 0}
    for name in counts:
        real = getattr(PresentedGradedRing, name)

        def counted(self, *args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(PresentedGradedRing, name, counted)
    d = desc(4, handles, [record(RecordKind.M, SphereSpec(2, {"nu2": 3}), SphereSpec(1, {"nu1": 1}))])
    for R in RINGS:
        counts.update(dict.fromkeys(counts, 0))
        cohomology_ring_of_descriptor(d, R)
        assert counts == {"__init__": rings_built, "_check": rings_built}, R


def test_structure_rules_on_random_descriptors():
    rng = random.Random(41)
    for _ in range(20):
        d = random_descriptor(rng)
        n = d.n
        rep = cohomology_ring_of_descriptor(d, Z)
        ring = rep.ring
        assert rep.homology.free_ranks == ring.free_ranks()
        bub = [e for e in ring.basis if e.provenance[0] == "bubbled"]
        tops = [e for e in ring.basis if e.provenance[0] == "top"]
        assert len(tops) == len(d.records)
        for a in bub:
            for b in bub:
                assert ring.product(a.id, b.id) == {}
        for t in tops:
            for b in ring.basis:
                assert ring.product(t.id, b.id) == {}
        # every stored constant matches the descriptor coefficient
        for rc in rep.record_classes:
            rec = d.records[rc.index - 1]
            for beta_id, sph in zip(rc.bubbled, rec.spheres):
                if beta_id is None:
                    continue
                for target, value in sph.coefficients:
                    assert ring.product(target, beta_id) == {rc.top: value}


def test_prefix_growth_rules():
    rng = random.Random(42)
    for _ in range(15):
        d = random_descriptor(rng)
        n = d.n
        for r in range(len(d.records)):
            before = homology_of_descriptor(desc(n, d.base.handles, d.records[:r]), Z)
            after = homology_of_descriptor(
                desc(n, d.base.handles, d.records[: r + 1]), Z
            )
            rec = d.records[r]
            assert after.rank(1) == before.rank(1)  # degree-1 never moves
            assert after.rank(n) == before.rank(n) + 1
            for k in range(2, n):
                added = sum(1 for s in rec.spheres if s.dim == n - k)
                assert after.rank(k) == before.rank(k) + added


def test_coefficient_sign_flip_preserves_invariants():
    pos = desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": 2}))])
    neg = desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": -2}))])
    for R in RINGS:
        a = cohomology_ring_of_descriptor(pos, R).ring
        b = cohomology_ring_of_descriptor(neg, R).ring
        assert compare_invariants(a, b).is_consistent


def test_coefficient_magnitude_detected_over_z():
    one = desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": 1}))])
    two = REMARK_FAMILY
    a = cohomology_ring_of_descriptor(one, Z).ring
    b = cohomology_ring_of_descriptor(two, Z).ring
    verdict = compare_invariants(a, b)
    assert not verdict.is_consistent
    assert "pairing" in verdict.witness
    qa = cohomology_ring_of_descriptor(one, Q).ring
    qb = cohomology_ring_of_descriptor(two, Q).ring
    assert compare_invariants(qa, qb).is_consistent


# ---------------------------------------------------------------------------
# planners
# ---------------------------------------------------------------------------


def test_plan_example():
    d = realize_plan(4, [0, 1, 0], [0, 1, 0, 1], [[0, 1, 0]], {(1, 2, 1, 1): 3})
    assert d.base.handles == (Sphere(2),)
    assert len(d.records) == 1
    (sph,) = d.records[0].spheres
    assert sph.dim == 2 and dict(sph.coefficients) == {"nu1": 3}
    rep = cohomology_ring_of_descriptor(d, Z)
    assert rep.homology.free_ranks == (1, 0, 2, 0, 1)
    assert rep.ring.product("nu1", "b1.1") == {"t1": 3}


def test_plan_zero_rows_give_bare_records():
    d = realize_plan(3, [1, 0], [0, 0, 3], [[0, 0]] * 3)
    assert len(d.records) == 3
    assert all(not r.spheres for r in d.records)
    rep = cohomology_ring_of_descriptor(d, Z)
    assert rep.homology.free_ranks == (1, 1, 0, 3)
    assert not any(
        ring_pair for ring_pair in rep.ring.products
    )


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(target_ranks=[1, 0, 0, 1]), "degree-1 rank must be 0"),
        (dict(target_ranks=[0, 1, 0, 0]), "must be positive"),
        (dict(sphere_counts=[[0, 0, 0]]), "column 2 sums to 0"),
        (dict(sphere_counts=[[1, 1, 0]]), "column 1 sums to 1"),
        (dict(coefficients={(1, 2, 1, 2): 1}), "exceeds the 1 base classes"),
        (dict(coefficients={(1, 3, 1, 1): 1}), "sphere position 1 exceeds count 0"),
        (dict(coefficients={(2, 2, 1, 1): 1}), "record index 2 out of range"),
        (dict(coefficients={(1, 2, 1, 1): True}), "expected an integer"),
        (dict(handle_counts=[0, -1, 0]), "negative value"),
        (dict(handle_counts=[0, 1]), "expected 3 entries"),
    ],
)
def test_plan_rejections(kwargs, message):
    base = dict(
        n=4,
        handle_counts=[0, 1, 0],
        target_ranks=[0, 1, 0, 1],
        sphere_counts=[[0, 1, 0]],
        coefficients={(1, 2, 1, 1): 3},
    )
    base.update(kwargs)
    with pytest.raises(ValueError, match=message):
        realize_plan(**base)


def test_plan_normal_mode():
    d = realize_plan(
        4, [0, 2, 0], [0, 2, 0, 3], [[0, 1, 0], [0, 1, 0], [0, 0, 0]],
        {(1, 2, 1, 1): 1, (2, 2, 1, 2): -2}, normal=True,
    )
    kinds = [r.kind for r in d.records]
    assert kinds == [RecordKind.NORMAL_M, RecordKind.NORMAL_M, RecordKind.POINT]
    rep = cohomology_ring_of_descriptor(d, Z)
    assert rep.homology.free_ranks == (1, 0, 4, 0, 3)


def test_plan_normal_mode_rejections():
    with pytest.raises(ValueError, match="at most one sphere"):
        realize_plan(
            4, [0, 2, 0], [0, 2, 0, 1], [[0, 2, 0]], normal=True
        )
    with pytest.raises(ValueError, match="exceeding the record count"):
        realize_plan(
            4, [0, 3, 0], [0, 3, 0, 2],
            [[0, 1, 0], [0, 1, 0]], normal=True,
        )


def test_plan_round_trip_seeded():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(3, 5)
        s = [rng.randint(0, 2) for _ in range(n - 1)]
        rows = rng.randint(1, 3)
        counts = [
            [0] + [rng.randint(0, 2) for _ in range(n - 2)] for _ in range(rows)
        ]
        targets = [sum(row[k] for row in counts) for k in range(n - 1)] + [rows]
        coeffs = {}
        for j in range(1, rows + 1):
            for k1 in range(2, n):
                for k2 in range(1, counts[j - 1][k1 - 1] + 1):
                    for k3 in range(1, s[n - k1 - 1] + 1):
                        c = rng.randint(-3, 3)
                        if c:
                            coeffs[(j, k1, k2, k3)] = c
        d = realize_plan(n, s, targets, counts, coeffs)
        rep = cohomology_ring_of_descriptor(d, Z)
        for k in range(1, n):
            assert rep.homology.rank(k) == s[k - 1] + targets[k - 1]
        assert rep.homology.rank(n) == rows
        # structure constants round-trip onto the designated pairs
        offsets = {}
        run = 0
        for k in range(1, n):
            offsets[k] = run
            run += s[k - 1]
        for (j, k1, k2, k3), c in coeffs.items():
            dim = n - k1
            beta_ids = [
                b
                for b, sph in zip(
                    rep.record_classes[j - 1].bubbled, d.records[j - 1].spheres
                )
                if sph.dim == dim
            ]
            beta = beta_ids[k2 - 1]
            nu = f"nu{offsets[dim] + k3}"
            assert rep.ring.product(nu, beta) == {f"t{j}": c}


def test_plan_general_torus_base():
    d = desc(4, [Product(Sphere(1), Sphere(1))], [record(RecordKind.M, SphereSpec(2, {}))])
    ring = cohomology_ring_of_descriptor(d, Z).ring
    beta = "b1.1"
    for e in ring.basis:
        assert ring.product(e.id, beta) == {}
    # the degree-2 product class is present, named as no sphere class, and
    # never pairs with beta
    assert ring.by_id["e3"].degree == 2


def test_plan_general_connsum_base():
    base = [ConnSum(Product(Sphere(1), Sphere(1)), Product(Sphere(1), Sphere(1)))]
    d = desc(4, base, [record(RecordKind.M, SphereSpec(1, {"nu1": 1}))])
    ring = cohomology_ring_of_descriptor(d, Z).ring
    assert ring.product("nu1", "b1.1") == {"t1": 1}
    for other in ("nu2", "nu3", "nu4"):
        assert ring.product(other, "b1.1") == {}


# ---------------------------------------------------------------------------
# manifold inference
# ---------------------------------------------------------------------------


def test_inference_point_schedule():
    d = desc(4, [], [record(RecordKind.POINT)])
    inf = manifold_inference(d, 7, Z)
    assert inf.qualifies
    assert inf.iso_range == 2
    assert inf.truncated.free_ranks() == (1, 0, 0)
    assert "index 0 or 1" in inf.assumption


def test_inference_degenerate_range():
    d = desc(4, [], [record(RecordKind.POINT)])
    inf = manifold_inference(d, 5, Z)
    assert inf.iso_range == 0
    assert inf.truncated.free_ranks() == (1,)


def test_inference_rank_doubling():
    d = desc(3, [Sphere(1)], [record(RecordKind.S, SphereSpec(1, {"nu1": 2}))])
    inf = manifold_inference(d, 6, Z)
    assert inf.qualifies
    assert inf.total_rank_doubling == 8
    off = manifold_inference(d, 7, Z)
    assert off.total_rank_doubling is None


def test_inference_gating():
    m_kind = desc(3, [Sphere(1)], [record(RecordKind.M, SphereSpec(1, {"nu1": 2}))])
    assert not manifold_inference(m_kind, 6, Z).qualifies
    normal_s = desc(
        3, [Sphere(1)], [record(RecordKind.NORMAL_S, SphereSpec(1, {"nu1": 2}))]
    )
    assert manifold_inference(normal_s, 6, Z).qualifies
    torus_base = desc(
        4, [Product(Sphere(1), Sphere(1))], [record(RecordKind.M, SphereSpec(2, {}))]
    )
    assert not manifold_inference(torus_base, 9, Z).qualifies


def test_inference_requires_excess_dimension():
    d = desc(3, [], [record(RecordKind.POINT)])
    with pytest.raises(ValueError, match="must exceed"):
        manifold_inference(d, 3, Z)


def test_inference_wide_range_keeps_whole_ring():
    inf = manifold_inference(REMARK_FAMILY, 12, Z)
    assert inf.truncated.free_ranks() == (1, 1, 1, 1)
    assert inf.truncated.product("nu1", "b1.1") == {"t1": 2}


def test_truncation_drops_overflow_products():
    ring = cohomology_ring_of_descriptor(REMARK_FAMILY, Z).ring
    t2 = truncate_ring(ring, 2)
    assert t2.free_ranks() == (1, 1, 1)
    assert t2.product("nu1", "b1.1") == {}
    with pytest.raises(ValueError, match=">= 0"):
        truncate_ring(ring, -1)
