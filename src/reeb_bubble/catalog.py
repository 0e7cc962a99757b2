"""Built-in descriptor catalog plus seeded random generators.

The named instances span target dimensions 2 through 5 with at most three
records, three spheres per record and coefficients within [-3, 3]; names
describe the space or the construction.  Random plans and descriptors are
deterministic functions of their seed, so verification sweeps are
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .calculus import realize_plan
from .descriptor import (
    BaseSpec,
    BubblingRecord,
    RecordKind,
    ReebDescriptor,
    SphereSpec,
)
from .graded import ConnSum, Product, Sphere


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    descriptor: ReebDescriptor


def _desc(n, handles, records):
    return ReebDescriptor(BaseSpec(n, tuple(handles)), tuple(records))


def _rec(kind, *spheres):
    return BubblingRecord(kind, tuple(spheres))


def _sph(dim, coeffs=None):
    return SphereSpec(dim, dict(coeffs or {}))


def _build_entries():
    M, S = RecordKind.M, RecordKind.S
    NM, NS, PT = RecordKind.NORMAL_M, RecordKind.NORMAL_S, RecordKind.POINT
    torus = Product(Sphere(1), Sphere(1))
    out = [
        CatalogEntry(
            "projected-disc",
            "no handles, no records: the contractible quotient of a sphere projection",
            _desc(2, [], []),
        ),
        CatalogEntry(
            "projected-disc-n3",
            "contractible quotient, target dimension 3",
            _desc(3, [], []),
        ),
        CatalogEntry(
            "circle-wedge-1",
            "one 1-handle, no surgery: a single circle",
            _desc(2, [Sphere(1)], []),
        ),
        CatalogEntry(
            "circle-wedge-2",
            "two 1-handles: wedge of two circles",
            _desc(2, [Sphere(1), Sphere(1)], []),
        ),
        CatalogEntry(
            "circle-wedge-3",
            "three 1-handles: wedge of three circles",
            _desc(2, [Sphere(1), Sphere(1), Sphere(1)], []),
        ),
        CatalogEntry(
            "point-bubble-n2",
            "point record over an empty base: 2-sphere homology",
            _desc(2, [], [_rec(PT)]),
        ),
        CatalogEntry(
            "point-bubble-n3",
            "point record over an empty base: 3-sphere homology",
            _desc(3, [], [_rec(PT)]),
        ),
        CatalogEntry(
            "point-bubble-n4",
            "point record over an empty base: 4-sphere homology",
            _desc(4, [], [_rec(PT)]),
        ),
        CatalogEntry(
            "point-bubble-n5",
            "point record over an empty base: 5-sphere homology",
            _desc(5, [], [_rec(PT)]),
        ),
        CatalogEntry(
            "m-bubble-over-circle",
            "circle base gaining one top class; degree-1 homology untouched",
            _desc(2, [Sphere(1)], [_rec(M)]),
        ),
        CatalogEntry(
            "circle-pair-unimodular",
            "circle paired against a bubbled circle with coefficient 1",
            _desc(3, [Sphere(1)], [_rec(M, _sph(1, {"nu1": 1}))]),
        ),
        CatalogEntry(
            "circle-pair-doubled",
            "same pairing with coefficient 2: integrally distinct ring",
            _desc(3, [Sphere(1)], [_rec(M, _sph(1, {"nu1": 2}))]),
        ),
        CatalogEntry(
            "circle-pair-tripled",
            "pairing coefficient 3",
            _desc(3, [Sphere(1)], [_rec(M, _sph(1, {"nu1": 3}))]),
        ),
        CatalogEntry(
            "circle-pair-negative",
            "pairing coefficient -2: sign is a unit, invariants match the doubled case",
            _desc(3, [Sphere(1)], [_rec(M, _sph(1, {"nu1": -2}))]),
        ),
        CatalogEntry(
            "sphere-pair-doubled-n4",
            "2-sphere base class paired with coefficient 2",
            _desc(4, [Sphere(2)], [_rec(M, _sph(2, {"nu1": 2}))]),
        ),
        CatalogEntry(
            "sphere-pair-tripled-n4",
            "2-sphere base class paired with coefficient 3",
            _desc(4, [Sphere(2)], [_rec(M, _sph(2, {"nu1": 3}))]),
        ),
        CatalogEntry(
            "sphere-pair-doubled-n5",
            "2-sphere base class paired with coefficient 2, fiber dimension 3",
            _desc(5, [Sphere(2)], [_rec(M, _sph(2, {"nu1": 2}))]),
        ),
        CatalogEntry(
            "torus-core-bubble",
            "torus core; surgery pairs one of its circle classes",
            _desc(3, [torus], [_rec(M, _sph(1, {"nu2": 2}))]),
        ),
        CatalogEntry(
            "torus-core-bubble-n4",
            "product core with a 2-sphere factor paired at coefficient 1",
            _desc(4, [Product(Sphere(1), Sphere(2))], [_rec(M, _sph(2, {"nu2": 1}))]),
        ),
        CatalogEntry(
            "bouquet-two-circles",
            "one record carrying two circles on a shared generating polyhedron",
            _desc(3, [Sphere(1)], [_rec(M, _sph(1, {"nu1": 2}), _sph(1, {"nu1": -1}))]),
        ),
        CatalogEntry(
            "bouquet-three-spheres",
            "three-sphere generating polyhedron with mixed dimensions",
            _desc(
                4,
                [Sphere(1), Sphere(2)],
                [_rec(S, _sph(1, {"nu1": 1}), _sph(2, {"nu2": -2}), _sph(1, {"nu1": 3}))],
            ),
        ),
        CatalogEntry(
            "bouquet-silent-wing",
            "two-sphere record where one sphere pairs with nothing",
            _desc(3, [Sphere(1)], [_rec(M, _sph(1, {"nu1": 1}), _sph(1))]),
        ),
        CatalogEntry(
            "mixed-records",
            "two records of different kinds targeting the same circle",
            _desc(
                3,
                [Sphere(1)],
                [_rec(M, _sph(1, {"nu1": 2})), _rec(S, _sph(1, {"nu1": -3}))],
            ),
        ),
        CatalogEntry(
            "normal-single",
            "normal record, one sphere, coefficient 2",
            _desc(3, [Sphere(1)], [_rec(NM, _sph(1, {"nu1": 2}))]),
        ),
        CatalogEntry(
            "normal-point-mix",
            "normal record plus a point record",
            _desc(3, [Sphere(1)], [_rec(NS, _sph(1, {"nu1": 1})), _rec(PT)]),
        ),
        CatalogEntry(
            "s-bubble-schedule",
            "sphere-fibered schedule: qualifies for source-manifold inference",
            _desc(3, [Sphere(1)], [_rec(S, _sph(1))]),
        ),
        CatalogEntry(
            "inference-doubling",
            "rank-4 quotient whose 6-dimensional source has total rank 8",
            _desc(3, [Sphere(1)], [_rec(S, _sph(1, {"nu1": 2}))]),
        ),
        CatalogEntry(
            "connsum-core",
            "connected-sum core (two tori): chain-level verification only",
            _desc(4, [ConnSum(torus, torus)], [_rec(M, _sph(1, {"nu1": 1}))]),
        ),
        CatalogEntry(
            "multi-target-spread",
            "one sphere pairing two base circles at once: chain-level only",
            _desc(
                3,
                [Sphere(1), Sphere(1)],
                [_rec(M, _sph(1, {"nu1": 1, "nu2": -2}))],
            ),
        ),
        CatalogEntry(
            "dim0-sprinkle",
            "0-sphere and point records: only top-degree growth",
            _desc(2, [Sphere(1)], [_rec(S, _sph(0)), _rec(PT)]),
        ),
        CatalogEntry(
            "deep-schedule-n5",
            "three records over a two-handle base in dimension 5",
            _desc(
                5,
                [Sphere(2), Sphere(3)],
                [
                    _rec(M, _sph(2, {"nu1": 2})),
                    _rec(M, _sph(3, {"nu2": -1})),
                    _rec(PT),
                ],
            ),
        ),
        CatalogEntry(
            "fiber-rich-n5",
            "circle paired at coefficient -3 under a 4-sphere fiber",
            _desc(5, [Sphere(1)], [_rec(M, _sph(1, {"nu1": -3}))]),
        ),
    ]
    names = [e.name for e in out]
    if len(set(names)) != len(names):
        raise RuntimeError("duplicate catalog names")
    return tuple(out)


ENTRIES: tuple[CatalogEntry, ...] = _build_entries()


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------


def random_plans(seed: int, count: int) -> list[dict]:
    """Legal planner inputs as JSON-ready documents.

    Shape: n in 2..5, at most two handles per dimension, at most three
    records, row sums at most three, per-degree extra rank at most two,
    coefficients in [-3, 3].  Every plan realizes without error by
    construction.
    """
    rng = random.Random(seed)
    plans = []
    for _ in range(count):
        n = rng.randint(2, 5)
        handle_counts = [rng.randint(0, 2) for _ in range(n - 1)]
        records = rng.randint(1, 3)
        rows = [[0] * (n - 1) for _ in range(records)]
        for k1 in range(2, n):
            budget = 2
            for row in rows:
                cap = min(budget, 3 - sum(row))
                if cap > 0 and rng.random() < 0.55:
                    row[k1 - 1] = rng.randint(1, cap)
                    budget -= row[k1 - 1]
        target = [0] * n
        target[-1] = records
        for k1 in range(2, n):
            target[k1 - 1] = sum(row[k1 - 1] for row in rows)
        coefficients = []
        for j, row in enumerate(rows, start=1):
            for k1 in range(2, n):
                dim = n - k1
                for k2 in range(1, row[k1 - 1] + 1):
                    for k3 in range(1, handle_counts[dim - 1] + 1):
                        if rng.random() < 0.6:
                            v = rng.randint(-3, 3)
                            if v:
                                coefficients.append([j, k1, k2, k3, v])
        plans.append(
            {
                "n": n,
                "handle_counts": handle_counts,
                "target_ranks": target,
                "sphere_counts": rows,
                "coefficients": coefficients,
                "normal": False,
            }
        )
    return plans


def plan_descriptor(plan: dict) -> ReebDescriptor:
    """Realize a JSON plan document."""
    coeffs = {
        (j, k1, k2, k3): v for j, k1, k2, k3, v in plan.get("coefficients", [])
    }
    return realize_plan(
        plan["n"],
        plan["handle_counts"],
        plan["target_ranks"],
        plan["sphere_counts"],
        coeffs,
        normal=bool(plan.get("normal", False)),
    )


def random_descriptors(seed: int, count: int) -> list[ReebDescriptor]:
    """Seeded valid descriptors with the catalog's size bounds."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 5)
        base = BaseSpec(n, tuple(Sphere(rng.randint(1, n - 1)) for _ in range(rng.randint(0, 3))))
        classes = base.classes  # of a wedge of spheres: all nu<j>
        records = []
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(list(RecordKind))
            if kind.is_point:
                records.append(BubblingRecord(kind, ()))
                continue
            arity = 1 if kind.is_normal else rng.randint(0, 3)
            spheres = []
            for _ in range(arity):
                dim = 0 if n < 3 else rng.randint(0, n - 2)
                coeffs = {}
                if dim >= 1:
                    for ident, deg in classes:
                        if deg == dim and rng.random() < 0.5:
                            v = rng.randint(-3, 3)
                            if v:
                                coeffs[ident] = v
                spheres.append(SphereSpec(dim, coeffs))
            records.append(BubblingRecord(kind, tuple(spheres)))
        out.append(ReebDescriptor(base, tuple(records)))
    return out
