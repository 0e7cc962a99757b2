"""Closed-form homology and ring presentations for bubbling descriptors.

The quotient space of a descriptor deformation-retracts onto a wedge of
handle cores with one surgered piece attached per record, and its homology
and cup products follow bookkeeping rules evaluated here directly.  The
planners invert the bookkeeping: given target ranks and structure constants
they emit a descriptor whose ring reproduces them.  The inference step
transfers ring data from the quotient space to a source manifold when the
record schedule allows it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import CoefficientRing, is_int
from .descriptor import (
    BaseSpec,
    BubblingRecord,
    RecordKind,
    ReebDescriptor,
    SphereSpec,
    base_classes,
    base_cohomology,
)
from .graded import (
    BasisElement,
    GradedModule,
    PresentedGradedRing,
    Sphere,
)

__all__ = [
    "RecordClasses",
    "RingPresentationReport",
    "InferenceReport",
    "homology_of_descriptor",
    "cohomology_ring_of_descriptor",
    "realize_plan",
    "manifold_inference",
    "truncate_ring",
]


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def homology_of_descriptor(d: ReebDescriptor, R: CoefficientRing) -> GradedModule:
    """Homology of the quotient space, degree by degree.

    Base wedge first, then per record: one new class in the top degree n,
    plus one class at degree n - l for every sphere of positive dimension l.
    Dimension-0 bouquet components merge into the new top class and add
    nothing of their own.  Everything stays free because the base family is
    torsion-free and the surgery only adds free summands, so the ranks are
    the same over every ring.  The base's classes are read off its handle
    expressions (:func:`~reeb_bubble.descriptor.base_classes`); no ring is
    built.
    """
    n = d.n
    ranks = [0] * (n + 1)
    ranks[0] = 1
    for _, k in base_classes(d.base):
        ranks[k] += 1
    for rec in d.records:
        ranks[n] += 1
        for sph in rec.spheres:
            if sph.dim >= 1:
                ranks[n - sph.dim] += 1
    return GradedModule(R, tuple(ranks))


# ---------------------------------------------------------------------------
# cohomology ring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecordClasses:
    """Basis ids contributed by one record.

    ``bubbled`` aligns with the record's sphere list; a ``None`` entry marks
    a dimension-0 component, which contributes no class of its own.
    """

    index: int
    kind: RecordKind
    bubbled: tuple
    top: str


@dataclass(frozen=True)
class RingPresentationReport:
    homology: GradedModule
    ring: PresentedGradedRing
    record_classes: tuple


def cohomology_ring_of_descriptor(
    d: ReebDescriptor, R: CoefficientRing
) -> RingPresentationReport:
    """Cup-product presentation of the quotient space's cohomology.

    Basis: the base ring's classes (inclusion images, ids kept), one class
    b<r>.<j> of degree n - l per positive-dimensional sphere, one top class
    t<r> of degree n per record.  Products: inclusion is a ring map, so the
    base table carries over; two bubbled classes multiply to zero; a base
    sphere class nu paired against b<r>.<j> gives coefficient-times-t<r>
    when the degrees match and zero otherwise; top classes annihilate all
    positive degrees.  t<r> is normalized so the stored-order constant is
    exactly the descriptor coefficient, with the sign on the reversed order
    supplied by graded commutativity.  Two rings are built and checked,
    once each: the base ring, by :func:`~reeb_bubble.descriptor.base_cohomology`
    over ``R``, and the result, whose ranks are checked against
    :func:`homology_of_descriptor`, which reads the base classes off the
    handle expressions instead.
    """
    n = d.n
    base = base_cohomology(d.base, R)
    if base.products and all(isinstance(h, Sphere) for h in d.base.handles):
        raise RuntimeError("sphere cores must have a zero product table")

    basis = [BasisElement(e.id, e.degree, ("inclusion",)) for e in base.basis]
    products = dict(base.products)
    per_record = []
    for r, rec in enumerate(d.records, start=1):
        top_id = f"t{r}"
        bubbled = []
        for j, sph in enumerate(rec.spheres, start=1):
            if sph.dim == 0:
                bubbled.append(None)
                continue
            beta = f"b{r}.{j}"
            bubbled.append(beta)
            l = sph.dim
            basis.append(BasisElement(beta, n - l, ("bubbled", r, j)))
            sign = -1 if (l % 2 and (n - l) % 2) else 1
            for target, value in sph.coefficients:
                products[(target, beta)] = {top_id: value}
                products[(beta, target)] = {top_id: sign * value}
        basis.append(BasisElement(top_id, n, ("top", r)))
        per_record.append(RecordClasses(r, rec.kind, tuple(bubbled), top_id))

    ring = PresentedGradedRing(R, n, basis, products)
    homology = homology_of_descriptor(d, R)
    if homology.free_ranks != ring.free_ranks():
        raise RuntimeError("rank bookkeeping out of sync")
    return RingPresentationReport(homology, ring, tuple(per_record))


# ---------------------------------------------------------------------------
# planners
# ---------------------------------------------------------------------------


def _as_rank(v, label, errors):
    if not is_int(v):
        errors.append(f"{label}: expected an integer, got {v!r}")
        return 0
    if v < 0:
        errors.append(f"{label}: negative value {v}")
        return 0
    return v


def realize_plan(
    n: int,
    handle_counts,
    target_ranks,
    sphere_counts,
    coefficients=None,
    *,
    normal: bool = False,
) -> ReebDescriptor:
    """Emit a descriptor realizing prescribed cohomology ranks and constants.

    ``handle_counts[k-1]`` spheres of dimension k seed the base for k in
    1..n-1.  ``target_ranks`` lists the extra rank wanted in each degree
    1..n; degree 1 must be zero and degree n must be positive, since each
    record contributes its own top class.  ``sphere_counts[j-1][k-1]`` says
    how many spheres of dimension n - k record j carries; column sums must
    reproduce ``target_ranks`` below degree n.  ``coefficients`` maps
    (record, degree, sphere position, base class position) to an integer
    pairing value.  With ``normal`` set, each record may carry at most one
    sphere and the sphere total may not exceed the record count; records
    come out as normal or point records accordingly.
    """
    errors: list[str] = []
    if not is_int(n) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    handle_counts = list(handle_counts)
    if len(handle_counts) != n - 1:
        errors.append(
            f"handle_counts: expected {n - 1} entries for dimensions 1..{n - 1}, "
            f"got {len(handle_counts)}"
        )
        handle_counts = (handle_counts + [0] * n)[: n - 1]
    handle_counts = [
        _as_rank(v, f"handle_counts[{i}]", errors) for i, v in enumerate(handle_counts)
    ]
    target_ranks = list(target_ranks)
    if len(target_ranks) != n:
        errors.append(
            f"target_ranks: expected {n} entries for degrees 1..{n}, "
            f"got {len(target_ranks)}"
        )
        target_ranks = (target_ranks + [0] * (n + 1))[:n]
    target_ranks = [
        _as_rank(v, f"target_ranks[{i}]", errors) for i, v in enumerate(target_ranks)
    ]
    if target_ranks[0] != 0:
        errors.append(f"target_ranks[0]: degree-1 rank must be 0, got {target_ranks[0]}")
    records_wanted = target_ranks[-1]
    if records_wanted < 1:
        errors.append("target_ranks[-1]: top-degree rank must be positive")

    rows = [list(row) for row in sphere_counts]
    if len(rows) != records_wanted:
        errors.append(
            f"sphere_counts: expected {records_wanted} rows (one per record), "
            f"got {len(rows)}"
        )
    for j, row in enumerate(rows):
        if len(row) != n - 1:
            errors.append(
                f"sphere_counts[{j}]: expected {n - 1} entries, got {len(row)}"
            )
            rows[j] = (row + [0] * n)[: n - 1]
        rows[j] = [
            _as_rank(v, f"sphere_counts[{j}][{k}]", errors)
            for k, v in enumerate(rows[j])
        ]
    for k in range(n - 1):
        want = target_ranks[k]
        got = sum(row[k] for row in rows)
        if got != want:
            errors.append(
                f"sphere_counts: column {k + 1} sums to {got}, "
                f"target rank at degree {k + 1} is {want}"
            )
    if normal:
        for j, row in enumerate(rows):
            if sum(row) > 1:
                errors.append(
                    f"sphere_counts[{j}]: normal mode allows at most one sphere, "
                    f"got {sum(row)}"
                )
        below = sum(target_ranks[:-1])
        if below > records_wanted:
            errors.append(
                f"normal mode: total rank below degree {n} is {below}, "
                f"exceeding the record count {records_wanted}"
            )

    coefficients = dict(coefficients or {})
    for key, value in coefficients.items():
        where = f"coefficients[{key}]"
        if not is_int(value):
            errors.append(f"{where}: expected an integer, got {value!r}")
            continue
        if not (isinstance(key, tuple) and len(key) == 4):
            errors.append(f"{where}: key must be (record, degree, sphere, class)")
            continue
        j, k1, k2, k3 = key
        if not 1 <= j <= len(rows):
            errors.append(f"{where}: record index {j} out of range")
            continue
        if not 2 <= k1 <= n - 1:
            errors.append(f"{where}: degree {k1} outside 2..{n - 1}")
            continue
        if not 1 <= k2 <= rows[j - 1][k1 - 1]:
            errors.append(
                f"{where}: sphere position {k2} exceeds count {rows[j - 1][k1 - 1]}"
            )
            continue
        dim = n - k1
        if not 1 <= k3 <= handle_counts[dim - 1]:
            errors.append(
                f"{where}: class position {k3} exceeds the {handle_counts[dim - 1]} "
                f"base classes of degree {dim}"
            )
    if errors:
        raise ValueError("; ".join(errors))

    handles = []
    offsets = {}
    running = 0
    for k in range(1, n):
        offsets[k] = running
        handles.extend(Sphere(k) for _ in range(handle_counts[k - 1]))
        running += handle_counts[k - 1]

    records = []
    for j, row in enumerate(rows, start=1):
        spheres = []
        for k1 in range(2, n):
            dim = n - k1
            for k2 in range(1, row[k1 - 1] + 1):
                coeffs = {}
                for k3 in range(1, handle_counts[dim - 1] + 1):
                    v = coefficients.get((j, k1, k2, k3), 0)
                    if v:
                        coeffs[f"nu{offsets[dim] + k3}"] = v
                spheres.append(SphereSpec(dim, coeffs))
        if normal:
            kind = RecordKind.NORMAL_M if spheres else RecordKind.POINT
        else:
            kind = RecordKind.M
        records.append(BubblingRecord(kind, tuple(spheres)))

    return ReebDescriptor(BaseSpec(n, tuple(handles)), tuple(records))


# ---------------------------------------------------------------------------
# manifold inference
# ---------------------------------------------------------------------------


def truncate_ring(A: PresentedGradedRing, top: int) -> PresentedGradedRing:
    """Quotient by everything above ``top``: drop classes and overflow products."""
    if top < 0:
        raise ValueError(f"truncation degree must be >= 0, got {top}")
    basis = [e for e in A.basis if e.degree <= top]
    keep = {e.id for e in basis}
    products = {
        pair: vec
        for pair, vec in A.products.items()
        if pair[0] in keep
        and pair[1] in keep
        and A.by_id[pair[0]].degree + A.by_id[pair[1]].degree <= top
    }
    return PresentedGradedRing(A.ring, top, basis, products)


QUALIFYING_KINDS = frozenset(
    {RecordKind.S, RecordKind.NORMAL_S, RecordKind.POINT}
)

INDEX_ASSUMPTION = (
    "assumes every fold point has index 0 or 1; the record schedule makes this "
    "available but it is not verified here"
)


@dataclass(frozen=True)
class InferenceReport:
    """What a quotient-space computation says about the source manifold."""

    source_dimension: int
    ring_label: str
    qualifies: bool
    assumption: str
    iso_range: int
    truncated: PresentedGradedRing
    total_rank_doubling: int | None
    homotopy_note: str


def manifold_inference(
    d: ReebDescriptor, m: int, R: CoefficientRing
) -> InferenceReport:
    """Transfer quotient-space invariants to an m-dimensional source.

    Sphere-fibered schedules (S-type and point records over a sphere base)
    keep regular fibers spherical, so homology, cohomology and the ring
    structure agree with the quotient space through degree m - n - 1; the
    report carries the truncated ring through that range.  When m = 2n and
    the homology is free below the top degree, the source's total rank is
    exactly twice the quotient space's.  Homotopy statements are recorded
    verbatim, never computed.
    """
    n = d.n
    if m <= n:
        raise ValueError(f"source dimension {m} must exceed the target dimension {n}")
    report = cohomology_ring_of_descriptor(d, R)
    qualifies = all(r.kind in QUALIFYING_KINDS for r in d.records) and all(
        isinstance(h, Sphere) for h in d.base.handles
    )
    iso_range = m - n - 1
    truncated = truncate_ring(report.ring, min(n, iso_range))
    doubling = None
    if m == 2 * n and report.homology.is_free:
        doubling = 2 * report.homology.total_rank
    return InferenceReport(
        source_dimension=m,
        ring_label=R.label,
        qualifies=qualifies,
        assumption=INDEX_ASSUMPTION if qualifies else "schedule does not qualify",
        iso_range=iso_range,
        truncated=truncated,
        total_rank_doubling=doubling,
        homotopy_note=(
            f"homotopy groups of the source agree with the quotient space "
            f"through degree {iso_range}; recorded as a statement only"
        ),
    )
