"""Acceptance gate: one test per criterion, each with its time budget.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  Every expected value here is either forced by the structural
formulas (and independently cross-checked by the oracles inside the test)
or a frozen small constant such as a Betti table of a named model space.
"""

import json
import time

from helpers import catalog_entry, tier2_entries

from reeb_bubble.calculus import (
    cohomology_ring_of_descriptor,
    homology_of_descriptor,
    manifold_inference,
    truncate_ring,
)
from reeb_bubble.catalog import (
    ENTRIES,
    plan_descriptor,
    random_descriptors,
    random_plans,
)
from reeb_bubble.coefficients import CoefficientRing
from reeb_bubble.descriptor import (
    ReebDescriptor,
    parse_descriptor,
    serialize_descriptor,
    validate,
)
from reeb_bubble.graded import compare_invariants, pairing_invariants
from reeb_bubble.oracle import assemble_chain_complex, verify_descriptor
from reeb_bubble.simplicial import (
    ChainComplexZ,
    homology_of_chain_complex,
    homology_of_complex,
    product_complex,
    sphere_complex,
)

Z = CoefficientRing.integers()
Q = CoefficientRing.rationals()
Z2 = CoefficientRing.prime_field(2)
Z3 = CoefficientRing.prime_field(3)
RINGS = (Z, Q, Z2, Z3)


def base_only(d: ReebDescriptor) -> ReebDescriptor:
    return ReebDescriptor(d.base, ())


def all_pairs(n):
    return [(p, q) for p in range(1, n) for q in range(1, n - p + 1)]


class budget:
    """Assert the block finished inside its stated runtime bound."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"finished in {elapsed:.1f}s, budget {self.seconds}s"
            )


def test_criterion_1_oracle_equivalence():
    with budget(300):
        assert len(ENTRIES) >= 25
        assert {e.descriptor.n for e in ENTRIES} == {2, 3, 4, 5}
        for e in ENTRIES:
            d = e.descriptor
            assert len(d.records) <= 3, e.name
            for r in d.records:
                assert len(r.spheres) <= 3, e.name
                for s in r.spheres:
                    assert all(abs(v) <= 3 for _, v in s.coefficients), e.name
            for R in RINGS:
                expected = homology_of_descriptor(d, R)
                measured = homology_of_chain_complex(assemble_chain_complex(d), R)
                top = max(expected.max_degree, measured.max_degree)
                assert expected.padded(top) == measured.padded(top), (e.name, R.label)
            assert homology_of_descriptor(d, Z).is_free, e.name


def test_criterion_2_ring_ground_truth():
    with budget(300):
        entries = tier2_entries()
        assert entries
        for e in entries:
            report = verify_descriptor(e.descriptor, RINGS, tier=2)
            assert report.ok, (e.name, [v.witnesses for v in report.verdicts])
            assert all(v.ring_match is True for v in report.verdicts), e.name


def test_criterion_3_coefficient_distinction():
    with budget(30):
        one = catalog_entry("circle-pair-unimodular").descriptor
        two = catalog_entry("circle-pair-doubled").descriptor

        ring_of = lambda d, R: cohomology_ring_of_descriptor(d, R).ring
        over_q = compare_invariants(ring_of(one, Q), ring_of(two, Q))
        assert over_q.is_consistent

        over_z = compare_invariants(ring_of(one, Z), ring_of(two, Z))
        assert not over_z.is_consistent
        assert "divisors [1]" in over_z.witness
        assert "divisors [2]" in over_z.witness

        rank_one = pairing_invariants(ring_of(one, Z2), 1, 2).map_rank
        rank_two = pairing_invariants(ring_of(two, Z2), 1, 2).map_rank
        assert (rank_one, rank_two) == (1, 0)


def test_criterion_4_planner_round_trip():
    with budget(120):
        plans = random_plans(seed=11, count=50)
        assert len(plans) == 50
        for plan in plans:
            n = plan["n"]
            assert n <= 5
            assert plan["target_ranks"][-1] <= 3
            assert all(t <= 2 for t in plan["target_ranks"][:-1])
            assert all(abs(row[4]) <= 3 for row in plan["coefficients"])

            d = plan_descriptor(plan)
            assert validate(d) == []

            rep = cohomology_ring_of_descriptor(d, Z)
            ranks = rep.ring.free_ranks()
            base_ranks = homology_of_descriptor(base_only(d), Z).padded(n).free_ranks
            for k in range(1, n + 1):
                assert ranks[k] == base_ranks[k] + plan["target_ranks"][k - 1], plan

            coeff = {
                (j, k1, k2, k3): v for j, k1, k2, k3, v in plan["coefficients"]
            }
            classes = [(i, k) for i, k in d.base.classes if i.startswith("nu")]
            for j, record in enumerate(d.records, start=1):
                top = f"t{j}"
                seen = {}
                for m, sphere in enumerate(record.spheres, start=1):
                    b_id = f"b{j}.{m}"
                    k1 = n - sphere.dim
                    seen[k1] = seen.get(k1, 0) + 1
                    k2 = seen[k1]
                    sign = -1 if (sphere.dim * (n - sphere.dim)) % 2 else 1
                    matching = [i for i, deg in classes if deg == sphere.dim]
                    for k3, nu in enumerate(matching, start=1):
                        want = coeff.get((j, k1, k2, k3), 0)
                        expected = {top: want} if want else {}
                        reversed_ = {top: sign * want} if want else {}
                        assert rep.ring.product(nu, b_id) == expected, (
                            plan, j, k1, k2, k3,
                        )
                        assert rep.ring.product(b_id, nu) == reversed_, (
                            plan, j, k1, k2, k3,
                        )


def test_criterion_5_model_spaces():
    with budget(30):
        def both(d, R=Z):
            expected = homology_of_descriptor(d, R)
            measured = homology_of_chain_complex(assemble_chain_complex(d), R)
            top = max(expected.max_degree, measured.max_degree)
            assert expected.padded(top) == measured.padded(top)
            return expected.free_ranks

        disc = catalog_entry("projected-disc").descriptor
        assert both(disc) == (1, 0, 0)

        for k in (1, 2, 3):
            wedge = catalog_entry(f"circle-wedge-{k}").descriptor
            assert both(wedge) == (1, k, 0)

        for n in (2, 3, 4, 5):
            sphere = catalog_entry(f"point-bubble-n{n}").descriptor
            assert both(sphere) == tuple(
                1 if k in (0, n) else 0 for k in range(n + 1)
            )

        bubbled = catalog_entry("m-bubble-over-circle").descriptor
        assert bubbled.n == 2
        before = homology_of_descriptor(base_only(bubbled), Z).padded(2)
        after = homology_of_descriptor(bubbled, Z)
        assert after.rank(1) == before.rank(1)
        assert after.rank(2) == before.rank(2) + 1
        both(bubbled)


def test_criterion_6_invariant_suite():
    with budget(300):
        pool = [e.descriptor for e in ENTRIES] + random_descriptors(137, 100)
        rescalings = 0
        for d in pool:
            n = d.n
            base = base_only(d)
            h = homology_of_descriptor(d, Z)
            hb = homology_of_descriptor(base, Z).padded(n)

            # degree-1 invariance and degree-n growth, one rank per record
            assert h.rank(1) == hb.rank(1)
            assert h.rank(n) == hb.rank(n) + len(d.records)

            # freeness over the integers
            assert h.is_free

            # the base ring embeds with its products intact
            A = cohomology_ring_of_descriptor(d, Z).ring
            B = cohomology_ring_of_descriptor(base, Z).ring
            base_ids = [b for b in B.basis if b.degree > 0]
            for x in base_ids:
                assert A.by_id[x.id].degree == x.degree
            for x in base_ids:
                for y in base_ids:
                    if x.degree + y.degree <= n:
                        assert A.product(x.id, y.id) == B.product(x.id, y.id)

            # boundary composition of the assembled complex vanishes
            cx = assemble_chain_complex(d)
            ChainComplexZ(cx.bases, cx.boundaries)

            # gluing exactness: after every stage of the schedule the
            # assembled cells and the formula Betti numbers have equal
            # alternating sums, uniformly across coefficient rings
            cell_euler = sum((-1) ** k * cx.dim_at(k) for k in range(n + 1))
            for R in (Q, Z2, Z3):
                betti = homology_of_descriptor(d, R).padded(n).free_ranks
                assert cell_euler == sum((-1) ** k * b for k, b in enumerate(betti))
            for i in range(len(d.records)):
                step = ReebDescriptor(d.base, d.records[:i])
                step_cx = assemble_chain_complex(step)
                step_euler = sum(
                    (-1) ** k * step_cx.dim_at(k) for k in range(n + 1)
                )
                betti = homology_of_descriptor(step, Q).padded(n).free_ranks
                assert step_euler == sum((-1) ** k * b for k, b in enumerate(betti))

            # rescaling a sphere's coefficient vector by a unit changes nothing
            obj = json.loads(serialize_descriptor(d))
            flipped = None
            for record in obj["records"]:
                for sphere in record.get("spheres", []):
                    if any(sphere.get("coefficients", {}).values()):
                        sphere["coefficients"] = {
                            k: -v for k, v in sphere["coefficients"].items()
                        }
                        flipped = parse_descriptor(json.dumps(obj))
                        break
                if flipped is not None:
                    break
            if flipped is not None:
                rescalings += 1
                A2 = cohomology_ring_of_descriptor(flipped, Z).ring
                assert A.free_ranks() == A2.free_ranks()
                for p, q in all_pairs(n):
                    assert pairing_invariants(A, p, q) == pairing_invariants(
                        A2, p, q
                    ), (p, q)
        assert rescalings >= 20

        # product cores: measured cross homology equals rank convolution
        def convolve(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return tuple(out)

        circle = sphere_complex(1)
        two_sphere = sphere_complex(2)
        cases = [
            (circle, circle, ((1, 1), (1, 1))),
            (circle, two_sphere, ((1, 1), (1, 0, 1))),
            (two_sphere, two_sphere, ((1, 0, 1), (1, 0, 1))),
        ]
        for K, L, (ra, rb) in cases:
            expected = convolve(ra, rb)
            for R in (Z, Z2):
                assert homology_of_complex(K, R).free_ranks == ra
                assert homology_of_complex(L, R).free_ranks == rb
                measured = product_complex(K, L)
                assert homology_of_complex(measured, R).free_ranks == expected

        torus_base = base_only(catalog_entry("torus-core-bubble").descriptor)
        assert homology_of_descriptor(torus_base, Z).free_ranks == (1, 2, 1, 0)


def test_criterion_7_dimension_doubling_inference():
    with budget(30):
        d = catalog_entry("inference-doubling").descriptor
        n = d.n
        m = 2 * n
        report = manifold_inference(d, m, Z)
        assert report.qualifies
        assert report.iso_range == m - n - 1

        total = homology_of_descriptor(d, Z).total_rank
        assert total == 4
        assert report.total_rank_doubling == 2 * total

        full = cohomology_ring_of_descriptor(d, Z).ring
        want = truncate_ring(full, m - n - 1)
        got = report.truncated
        assert got.free_ranks() == want.free_ranks()
        assert [(b.id, b.degree) for b in got.basis] == [
            (b.id, b.degree) for b in want.basis
        ]
        assert got.products == want.products
