"""Descriptor validation, base classes and the wire format."""

import random

import pytest
from helpers import random_expr, reference_base_ring

from reeb_bubble import descriptor as descriptor_module
from reeb_bubble import graded as graded_module
from reeb_bubble.calculus import cohomology_ring_of_descriptor
from reeb_bubble.catalog import ENTRIES, plan_descriptor, random_descriptors, random_plans
from reeb_bubble.descriptor import (
    BaseSpec,
    BubblingRecord,
    DescriptorFormatError,
    InvalidDescriptorError,
    RecordKind,
    ReebDescriptor,
    SphereSpec,
    base_classes,
    base_cohomology,
    base_sphere_classes,
    parse_descriptor,
    serialize_descriptor,
    validate,
)
from reeb_bubble.coefficients import CoefficientRing
from reeb_bubble.graded import (
    BasisElement,
    ConnSum,
    Product,
    Sphere,
    dimension,
    gcps_cohomology,
)

Z = CoefficientRing.integers()
RINGS = (Z, CoefficientRing.rationals(), CoefficientRing.prime_field(2), CoefficientRing.prime_field(3))


def simple(n, handles=(), records=()):
    return ReebDescriptor(BaseSpec(n, tuple(handles)), tuple(records))


def violations_of(n, handles=(), records=()):
    """The violations that building the descriptor raises with."""
    with pytest.raises(InvalidDescriptorError) as info:
        simple(n, handles, records)
    violations = info.value.violations
    assert violations
    assert str(info.value) == "invalid descriptor: " + "; ".join(violations)
    return violations


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_empty_descriptor_is_valid():
    assert validate(simple(3)) == []


def test_sphere_dim_bound():
    rec = BubblingRecord(RecordKind.M, (SphereSpec(2),))
    violations = violations_of(3, records=[rec])
    assert len(violations) == 1
    assert "dim 2 > n-2" in violations[0]
    # one dimension higher the same sphere is fine
    assert validate(simple(4, records=[rec])) == []


def test_coefficient_degree_mismatch():
    violations = violations_of(
        4,
        handles=[Sphere(2)],
        records=[BubblingRecord(RecordKind.M, (SphereSpec(1, (("nu1", 1),)),))],
    )
    assert len(violations) == 1
    assert "degree 2" in violations[0] and "dim 1" in violations[0]


def test_unknown_coefficient_target():
    violations = violations_of(
        3,
        records=[BubblingRecord(RecordKind.M, (SphereSpec(1, (("nu1", 1),)),))],
    )
    assert any("unknown coefficient target nu1" in v for v in violations)


def test_core_dimension_window():
    assert violations_of(3, handles=[Sphere(3)])
    assert violations_of(2, handles=[Product(Sphere(1), Sphere(1))])
    assert validate(simple(3, handles=[Product(Sphere(1), Sphere(1))])) == []


def test_normal_record_arity():
    two = BubblingRecord(RecordKind.NORMAL_M, (SphereSpec(1), SphereSpec(1)))
    violations = violations_of(3, records=[two])
    assert any("exactly one sphere" in v for v in violations)
    one = BubblingRecord(RecordKind.NORMAL_S, (SphereSpec(1),))
    assert validate(simple(3, records=[one])) == []


def test_point_record_must_be_bare():
    bad = BubblingRecord(RecordKind.POINT, (SphereSpec(0),))
    assert any("no spheres" in v for v in violations_of(3, records=[bad]))
    good = BubblingRecord(RecordKind.POINT)
    assert validate(simple(2, records=[good])) == []


def test_dim_zero_sphere_carries_no_coefficients():
    with pytest.raises(ValueError):
        SphereSpec(0, (("nu1", "x"),))
    bad = BubblingRecord(RecordKind.M, (SphereSpec(0, ()),))
    assert validate(simple(3, records=[bad])) == []
    carrying = BubblingRecord(RecordKind.M, (SphereSpec(0, (("nu1", 1),)),))
    violations = violations_of(3, handles=[Sphere(1)], records=[carrying])
    assert any("dim-0" in v for v in violations)


def test_validate_collects_all_violations():
    violations = violations_of(1, records=[BubblingRecord(RecordKind.NORMAL_M, ())])
    assert len(violations) >= 2


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
def test_sphere_fields_must_be_exact_integers(value):
    # the rule of the wire format's integer fields: a bool is no integer
    with pytest.raises(ValueError, match="expected an integer"):
        SphereSpec(1, {"nu1": value})
    with pytest.raises(ValueError, match="expected an integer"):
        SphereSpec(value)


@pytest.mark.parametrize("value", [3.0, True, "3"])
def test_n_must_be_an_exact_integer(value):
    violations = violations_of(value)
    assert violations == [f"base.n: expected an integer, got {value!r}"]


def test_sphere_core_dimension_must_be_an_exact_integer():
    violations = violations_of(4, handles=[Product(Sphere(1), Sphere(2.0))])
    assert violations == ["base.handles[0]: sphere dimension must be an integer, got 2.0"]


def test_prefix_of_valid_schedule_is_valid():
    recs = [
        BubblingRecord(RecordKind.M, (SphereSpec(1, (("nu1", 2),)),)),
        BubblingRecord(RecordKind.POINT),
        BubblingRecord(RecordKind.S, (SphereSpec(1), SphereSpec(1))),
    ]
    d = simple(3, handles=[Sphere(1)], records=recs)
    assert validate(d) == []
    for k in range(len(recs) + 1):
        assert validate(simple(3, handles=[Sphere(1)], records=recs[:k])) == []


# ---------------------------------------------------------------------------
# base classes
# ---------------------------------------------------------------------------


def test_base_classes_spheres():
    d = simple(3, handles=[Sphere(1), Sphere(2)])
    assert base_sphere_classes(d) == [("nu1", 1), ("nu2", 2)]


def test_base_classes_product_core():
    d = simple(4, handles=[Product(Sphere(1), Sphere(1))])
    assert base_sphere_classes(d) == [("nu1", 1), ("nu2", 1)]


def test_base_classes_empty():
    assert base_sphere_classes(simple(5)) == []


def test_base_classes_connsum_drops_top_classes():
    # S^2 # S^2 has no middle classes; (S^1 x S^2) # (S^1 x S^2) keeps four
    assert base_sphere_classes(simple(3, handles=[ConnSum(Sphere(2), Sphere(2))])) == []
    s1s2 = Product(Sphere(1), Sphere(2))
    d = simple(4, handles=[ConnSum(s1s2, s1s2), Sphere(3)])
    assert base_sphere_classes(d) == [("nu1", 1), ("nu2", 2), ("nu3", 1), ("nu4", 2), ("nu5", 3)]


def _random_bases(seed):
    """60 seeded bases of up to three random cores of dimension at most 4."""
    rng = random.Random(4100 + seed)
    for _ in range(60):
        handles = [
            random_expr(rng, rng.randint(1, 4), rng.randint(0, 3))
            for _ in range(rng.randint(0, 3))
        ]
        yield BaseSpec(max([dimension(h) for h in handles], default=1) + 1, tuple(handles))


@pytest.mark.parametrize("seed", range(4))
def test_base_classes_match_the_base_ring_order(seed):
    for base in _random_bases(seed):
        # the ring constructors list their basis independently of the walk
        ring = gcps_cohomology(base.handles, Z)
        assert [k for _, k in base_classes(base)] == [e.degree for e in ring.basis]


def test_base_classes_reject_invalid_handles():
    # a raw BaseSpec is not validated, so the walk checks its handles
    with pytest.raises(ValueError, match="share a dimension"):
        base_classes(BaseSpec(4, (ConnSum(Sphere(1), Sphere(2)),)))
    with pytest.raises(ValueError, match=">= 1"):
        base_classes(BaseSpec(4, (Product(Sphere(0), Sphere(2)),)))
    with pytest.raises(TypeError, match="must be an integer"):
        base_classes(BaseSpec(4, (Sphere(True),)))


def test_validate_builds_no_ring(monkeypatch):
    calls = []
    real = graded_module.gcps_cohomology

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(graded_module, "gcps_cohomology", counted)
    monkeypatch.setattr(descriptor_module, "gcps_cohomology", counted)
    s1s2 = Product(Sphere(1), Sphere(2))
    handles = [ConnSum(s1s2, s1s2), Sphere(2)]
    good = BubblingRecord(RecordKind.M, (SphereSpec(2, {"nu2": 3, "nu5": -1}),))
    assert validate(simple(4, handles, [good])) == []
    wrong = BubblingRecord(RecordKind.M, (SphereSpec(2, {"nu1": 1, "nu6": 1}),))
    violations = violations_of(4, handles, [wrong])
    assert any("target nu1 has degree 1" in v for v in violations)
    assert any("unknown coefficient target nu6" in v for v in violations)
    assert calls == []


def test_base_cohomology_names_match():
    ring = base_cohomology(BaseSpec(4, (Sphere(1), Product(Sphere(1), Sphere(2)))), Z)
    assert [e.id for e in ring.basis] == ["nu1", "nu2", "nu3", "e4"]
    assert ring.free_ranks() == (1, 2, 1, 1)


def test_base_cohomology_checks_the_ring_against_the_walk(monkeypatch):
    # the wedge builder lists a product core's classes through tensor_ring,
    # independently of the walk; a tensor_ring that lists its factors
    # swapped puts the degree-2 sphere class first, an internal fault
    base = BaseSpec(4, (Product(Sphere(1), Sphere(2)),))
    real = graded_module.tensor_ring
    with monkeypatch.context() as patch:
        patch.setattr(graded_module, "tensor_ring", lambda A, B: real(B, A))
        with pytest.raises(RuntimeError, match="out of sync"):
            base_cohomology(base, Z)
    # degrees in order but a sphere class unmarked: e1, e2 where the walk says nu1, nu2
    sphere_ring = graded_module.sphere_ring

    def unmarked(k, R):
        (gen,) = sphere_ring(k, R).basis
        return graded_module.PresentedGradedRing(R, k, (BasisElement(gen.id, k),), {})

    monkeypatch.setattr(graded_module, "sphere_ring", unmarked)
    with pytest.raises(RuntimeError, match="out of sync"):
        base_cohomology(base, Z)


def _walked_descriptors():
    yield from (e.descriptor for e in ENTRIES)
    yield from (plan_descriptor(p) for p in random_plans(0, 80))
    yield from random_descriptors(0, 160)
    for seed in range(4):
        yield from (ReebDescriptor(base) for base in _random_bases(seed))


def test_one_pass_base_ring_matches_the_two_step_reference():
    # the two-step construction, a fresh-id wedge renamed by the walk, is
    # the reference: the one-pass wedge must give the same ids, degrees,
    # provenance and product table, and so must the formula ring's base part
    seen = 0
    for d in _walked_descriptors():
        for R in RINGS:
            ref = reference_base_ring(d.base, R)
            base = base_cohomology(d.base, R)
            assert (base.top_degree, base.basis, base.products) == (
                ref.top_degree,
                ref.basis,
                ref.products,
            ), d
            ring = cohomology_ring_of_descriptor(d, R).ring
            ids = set(ref.by_id)
            included = tuple(BasisElement(e.id, e.degree, ("inclusion",)) for e in ref.basis)
            assert ring.basis[: len(ref.basis)] == included, d
            assert {
                pair: vec for pair, vec in ring.products.items() if ids.issuperset(pair)
            } == ref.products, d
        seen += 1
    assert seen == len(ENTRIES) + 80 + 160 + 4 * 60


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


def test_parse_minimal_document():
    d = parse_descriptor('{"n": 2, "base": {"handles": []}, "records": []}')
    assert d == simple(2)


def test_parse_point_record_document():
    text = """
    {"n": 2,
     "base": {"handles": []},
     "records": [{"kind": "point", "spheres": []}]}
    """
    d = parse_descriptor(text)
    assert d.records == (BubblingRecord(RecordKind.POINT),)
    assert validate(d) == []


def test_parse_full_document():
    text = """
    {"n": 4,
     "base": {"handles": [{"sphere": 1},
                          {"product": [{"sphere": 1}, {"sphere": 1}]},
                          {"connsum": [{"product": [{"sphere": 1}, {"sphere": 1}]},
                                        {"product": [{"sphere": 1}, {"sphere": 1}]}]}]},
     "records": [{"kind": "M",
                  "spheres": [{"dim": 1, "coefficients": {"nu1": 2, "nu3": -1}},
                              {"dim": 2}]},
                 {"kind": "normal-S",
                  "spheres": [{"dim": 1, "coefficients": {"nu2": 1}}]}]}
    """
    d = parse_descriptor(text)
    assert d.n == 4
    assert len(d.base.handles) == 3
    assert dict(d.records[0].spheres[0].coefficients) == {"nu1": 2, "nu3": -1}
    assert d.records[1].kind is RecordKind.NORMAL_S
    assert validate(d) == []


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[1,2]", "top level"),
        ('{"n": 2, "base": {"handles": []}}', "missing field 'records'"),
        ('{"n": 2, "base": {"handles": []}, "records": [], "x": 1}', "unknown field 'x'"),
        (
            '{"n": 2, "base": {"handles": [], "extra": 0}, "records": []}',
            "unknown field 'extra'",
        ),
        ('{"n": true, "base": {"handles": []}, "records": []}', "integer"),
        (
            '{"n": 2, "base": {"handles": [{"sphere": 1, "x": 2}]}, "records": []}',
            "single-key",
        ),
        (
            '{"n": 2, "base": {"handles": [{"torus": 1}]}, "records": []}',
            "unknown expression kind",
        ),
        (
            '{"n": 2, "base": {"handles": []}, "records": [{"kind": "Q"}]}',
            "unknown kind",
        ),
        (
            '{"n": 3, "base": {"handles": []}, '
            '"records": [{"kind": "M", "spheres": [{"dim": 1, "coefficients": {"x9": 1}}]}]}',
            "'x9'",
        ),
        (
            '{"n": 3, "base": {"handles": []}, '
            '"records": [{"kind": "M", "spheres": [{"dim": 1, "coefficients": {"nu1": 1.5}}]}]}',
            "nu1",
        ),
        ("{not json", "not valid JSON"),
    ],
)
def test_parse_rejections(text, fragment):
    with pytest.raises(DescriptorFormatError) as err:
        parse_descriptor(text)
    assert fragment in str(err.value)


def test_roundtrip_identity():
    docs = [
        simple(2),
        simple(
            4,
            handles=[Sphere(2), ConnSum(Product(Sphere(1), Sphere(1)), Product(Sphere(1), Sphere(1)))],
            records=[
                BubblingRecord(
                    RecordKind.M,
                    (SphereSpec(1, (("nu2", 1), ("nu3", -2))), SphereSpec(2, (("nu1", 3),))),
                ),
                BubblingRecord(RecordKind.POINT),
            ],
        ),
    ]
    for d in docs:
        text = serialize_descriptor(d)
        again = parse_descriptor(text)
        assert again == d
        assert serialize_descriptor(again) == text


def test_coefficient_order_is_canonical():
    a = SphereSpec(1, (("nu2", 5), ("nu1", 3)))
    b = SphereSpec(1, (("nu1", 3), ("nu2", 5)))
    assert a == b
    assert a.coefficients == (("nu1", 3), ("nu2", 5))
    # nu10 sorts after nu9 numerically, not lexically
    c = SphereSpec(1, (("nu10", 1), ("nu9", 1)))
    assert c.coefficients == (("nu9", 1), ("nu10", 1))
