"""Descriptor validation, base classes and the wire format."""

import random

import pytest

from reeb_bubble import descriptor as descriptor_module
from reeb_bubble import graded as graded_module
from reeb_bubble.descriptor import (
    BaseSpec,
    BubblingRecord,
    DescriptorFormatError,
    RecordKind,
    ReebDescriptor,
    SphereSpec,
    base_cohomology,
    base_sphere_classes,
    parse_descriptor,
    serialize_descriptor,
    validate,
)
from reeb_bubble.coefficients import CoefficientRing
from reeb_bubble.graded import ConnSum, Product, Sphere, dimension

Z = CoefficientRing.integers()


def simple(n, handles=(), records=()):
    return ReebDescriptor(BaseSpec(n, tuple(handles)), tuple(records))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_empty_descriptor_is_valid():
    assert validate(simple(3)) == []


def test_sphere_dim_bound():
    rec = BubblingRecord(RecordKind.M, (SphereSpec(2),))
    d = simple(3, records=[rec])
    violations = validate(d)
    assert len(violations) == 1
    assert "dim 2 > n-2" in violations[0]
    # one dimension higher the same sphere is fine
    assert validate(simple(4, records=[rec])) == []


def test_coefficient_degree_mismatch():
    d = simple(
        4,
        handles=[Sphere(2)],
        records=[BubblingRecord(RecordKind.M, (SphereSpec(1, (("nu1", 1),)),))],
    )
    violations = validate(d)
    assert len(violations) == 1
    assert "degree 2" in violations[0] and "dim 1" in violations[0]


def test_unknown_coefficient_target():
    d = simple(
        3,
        records=[BubblingRecord(RecordKind.M, (SphereSpec(1, (("nu1", 1),)),))],
    )
    violations = validate(d)
    assert any("unknown coefficient target nu1" in v for v in violations)


def test_core_dimension_window():
    assert validate(simple(3, handles=[Sphere(3)]))
    assert validate(simple(2, handles=[Product(Sphere(1), Sphere(1))]))
    assert validate(simple(3, handles=[Product(Sphere(1), Sphere(1))])) == []


def test_normal_record_arity():
    two = BubblingRecord(RecordKind.NORMAL_M, (SphereSpec(1), SphereSpec(1)))
    violations = validate(simple(3, records=[two]))
    assert any("exactly one sphere" in v for v in violations)
    one = BubblingRecord(RecordKind.NORMAL_S, (SphereSpec(1),))
    assert validate(simple(3, records=[one])) == []


def test_point_record_must_be_bare():
    bad = BubblingRecord(RecordKind.POINT, (SphereSpec(0),))
    assert any("no spheres" in v for v in validate(simple(3, records=[bad])))
    good = BubblingRecord(RecordKind.POINT)
    assert validate(simple(2, records=[good])) == []


def test_dim_zero_sphere_carries_no_coefficients():
    with pytest.raises(ValueError):
        SphereSpec(0, (("nu1", "x"),))
    bad = BubblingRecord(RecordKind.M, (SphereSpec(0, ()),))
    assert validate(simple(3, records=[bad])) == []
    carrying = BubblingRecord(RecordKind.M, (SphereSpec(0, (("nu1", 1),)),))
    d = simple(3, handles=[Sphere(1)], records=[carrying])
    assert any("dim-0" in v for v in validate(d))


def test_validate_collects_all_violations():
    d = simple(
        1,
        records=[BubblingRecord(RecordKind.NORMAL_M, ())],
    )
    violations = validate(d)
    assert len(violations) >= 2


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


def _random_expr(rng, dim, depth):
    """A random Sphere/Product/ConnSum expression of dimension ``dim``."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return Sphere(dim)
    if roll < 0.65 and dim >= 2:
        k = rng.randint(1, dim - 1)
        return Product(_random_expr(rng, k, depth - 1), _random_expr(rng, dim - k, depth - 1))
    return ConnSum(_random_expr(rng, dim, depth - 1), _random_expr(rng, dim, depth - 1))


@pytest.mark.parametrize("seed", range(4))
def test_base_classes_match_the_base_ring_order(seed):
    rng = random.Random(4100 + seed)
    for _ in range(60):
        handles = [
            _random_expr(rng, rng.randint(1, 4), rng.randint(0, 3))
            for _ in range(rng.randint(0, 3))
        ]
        d = simple(max([dimension(h) for h in handles], default=1) + 1, handles)
        ring = base_cohomology(d.base, Z)
        expected = [(e.id, e.degree) for e in ring.basis if e.sphere_representable]
        assert base_sphere_classes(d) == expected


def test_base_classes_reject_invalid_handles():
    with pytest.raises(ValueError, match="share a dimension"):
        base_sphere_classes(simple(4, handles=[ConnSum(Sphere(1), Sphere(2))]))
    with pytest.raises(ValueError, match=">= 1"):
        base_sphere_classes(simple(4, handles=[Product(Sphere(0), Sphere(2))]))


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
    violations = validate(simple(4, handles, [wrong]))
    assert any("target nu1 has degree 1" in v for v in violations)
    assert any("unknown coefficient target nu6" in v for v in violations)
    assert calls == []


def test_base_cohomology_names_match():
    ring = base_cohomology(BaseSpec(4, (Sphere(1), Product(Sphere(1), Sphere(2)))), Z)
    marked = [e.id for e in ring.basis if e.sphere_representable]
    assert marked == ["nu1", "nu2", "nu3"]
    assert ring.free_ranks() == (1, 2, 1, 1)


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
