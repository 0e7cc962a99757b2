"""Independent cross-checks for the formula engine.

Two verification paths, both built from a descriptor without consulting the
bookkeeping formulas.  Tier 1 assembles an integer chain complex: a
zero-differential complex for the base wedge and for each record's attached
manifold, joined by iterated algebraic mapping cones over the attaching
data, with homology read off elementary divisors.  Tier 2 builds an honest
simplicial complex by gluing genuine product-of-sphere pieces onto the base
wedge through mapping cylinders of measured-degree sphere maps, so homology
AND cup products can be computed simplicially and compared against the
formula presentation.

Tier 1 reuses the homotopy model (wedges, products, cones) but none of the
direct-sum shortcuts, and builds no ring: its base cells are the classes
read off the handle expressions.  Tier 2 shares nothing with the formulas
beyond the descriptor itself.  Descriptors are valid by construction, so
neither tier validates one again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .calculus import cohomology_ring_of_descriptor, homology_of_descriptor
from .coefficients import CoefficientRing
from .descriptor import ReebDescriptor, base_classes, serialize_descriptor
from .graded import ConnSum, PresentedGradedRing, Product, Sphere, compare_invariants
from .simplicial import (
    ChainComplexZ,
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
    product_complex,
    sphere_complex,
    sphere_product,
    wedge_complexes,
)

__all__ = [
    "TierError",
    "assemble_chain_complex",
    "simplicial_model",
    "tier2_obstruction",
    "verify_descriptor",
    "RingVerdict",
    "VerificationReport",
    "format_report",
]


class TierError(ValueError):
    """Raised when a descriptor needs machinery a tier does not provide."""


# ---------------------------------------------------------------------------
# tier 1: assembled chain complexes
# ---------------------------------------------------------------------------


def assemble_chain_complex(d: ReebDescriptor) -> ChainComplexZ:
    """One integer chain complex for the whole descriptor.

    Base wedge and each record's manifold enter as zero-differential
    complexes; each record then contributes cone generators, one per bouquet
    component, whose boundaries identify the section classes with the
    coefficient combinations of base classes they attach to.  Homology of
    the result is the homology of the glued space by Mayer-Vietoris.  The
    base cells are the classes of
    :func:`~reeb_bubble.descriptor.base_classes`; no ring is built.
    """
    n = d.n
    labels: list[list] = [[] for _ in range(n + 1)]
    diff: dict = {}
    labels[0].append(("w", 0))
    for ident, k in base_classes(d.base):
        labels[k].append(("w", ident))
    for r, rec in enumerate(d.records, start=1):
        spheres = [
            (j, s) for j, s in enumerate(rec.spheres, start=1) if s.dim >= 1
        ]
        labels[0].append(("e", r, "base"))
        labels[n].append(("e", r, "top"))
        for j, s in spheres:
            labels[s.dim].append(("e", r, "sec", j))
            labels[n - s.dim].append(("e", r, "fib", j))
        cone0 = ("c", r, 0)
        labels[1].append(cone0)
        diff[cone0] = {("e", r, "base"): 1, ("w", 0): -1}
        for j, s in spheres:
            cone = ("c", r, j)
            labels[s.dim + 1].append(cone)
            vec = {("e", r, "sec", j): 1}
            for target, value in s.coefficients:
                if value:
                    vec[("w", target)] = -value
            diff[cone] = vec

    boundaries: list = [[{} for _ in labels[0]]]
    for k in range(1, n + 1):
        index = {lab: i for i, lab in enumerate(labels[k - 1])}
        boundaries.append(
            [{index[low]: c for low, c in diff.get(lab, {}).items()} for lab in labels[k]]
        )
    return ChainComplexZ(labels, boundaries)


# ---------------------------------------------------------------------------
# tier 2: honest simplicial complexes
# ---------------------------------------------------------------------------


def _has_connsum(expr) -> bool:
    if isinstance(expr, ConnSum):
        return True
    if isinstance(expr, Product):
        return _has_connsum(expr.left) or _has_connsum(expr.right)
    return False


def tier2_obstruction(d: ReebDescriptor) -> str | None:
    """Why a descriptor cannot be modeled simplicially, or None if it can."""
    for i, h in enumerate(d.base.handles):
        if _has_connsum(h):
            return f"base.handles[{i}]: connected-sum cores are not supported"
    for r, rec in enumerate(d.records):
        for j, s in enumerate(rec.spheres):
            live = [t for t, v in s.coefficients if v]
            if len(live) > 1:
                return (
                    f"records[{r}].spheres[{j}]: multi-target coefficients "
                    f"({', '.join(live)}) are not supported"
                )
    return None


def _expr_complex(expr):
    """Core complex plus carrier maps for its targetable sphere classes.

    Carriers are listed in the same order the base ring marks its classes:
    left factor before right, recursively.  Each carrier maps the vertices
    of the standard sphere of the class's degree onto a full subcomplex.
    Every core's vertices are 0 .. |K| - 1, so a product vertex (u, v) is
    u * |K2| + v, as :func:`product_complex` numbers it.  Every core's
    basepoint is vertex 0, (0, 0) in a product, so a left factor's carrier
    lands on K1 x {0} and a right factor's on {0} x K2 unchanged.
    """
    if isinstance(expr, Sphere):
        K = sphere_complex(expr.k)
        return K, [{v: v for v in K.vertices}]
    if isinstance(expr, Product):
        K1, car1 = _expr_complex(expr.left)
        K2, car2 = _expr_complex(expr.right)
        m = len(K2.vertices)
        carriers = [{u: v * m for u, v in c.items()} for c in car1] + car2
        if isinstance(expr.left, Sphere) and isinstance(expr.right, Sphere):
            return sphere_product(expr.left.k, expr.right.k), carriers
        return product_complex(K1, K2), carriers
    raise TierError("connected-sum cores are not supported")


def _base_complex(d: ReebDescriptor):
    """The wedge of the base cores at their vertex 0, which is the model's
    vertex 0, and the carriers of the classes, named nu1, nu2, ..."""
    pieces = [_expr_complex(h) for h in d.base.handles]
    W, maps = wedge_complexes([K for K, _ in pieces])
    carriers = {}
    for (_, cars), vmap in zip(pieces, maps):
        for car in cars:
            carriers[f"nu{len(carriers) + 1}"] = {u: vmap[v] for u, v in car.items()}
    return W, carriers


def simplicial_model(d: ReebDescriptor) -> SimplicialComplex:
    """Assemble the descriptor's space as one simplicial complex.

    Per record, the attached manifold is a connected sum of sphere products
    whose section spheres are kept intact by the facet-avoidance sets.  A
    record with one sphere whose coefficient is +-1 glues its section
    straight onto the carrier of its target class.  Every other record,
    with one sphere or several, attaches along one mapping cylinder: a
    sphere with a live coefficient maps onto its carrier by a degree map,
    and one without, an explicit 0 included, maps to the wedge point.
    Several spheres attach along their wedge: the sphere products meet in
    one connected-sum vertex that every section passes through, and it sits
    over the wedge point, so the identification locus stays connected.
    The model's vertices are 0 .. |X| - 1: each gluing numbers the new
    vertices after the old ones.
    """
    reason = tier2_obstruction(d)
    if reason is not None:
        raise TierError(f"{reason}; use tier 1")
    n = d.n
    X, carriers = _base_complex(d)

    for rec in d.records:
        spheres = [s for s in rec.spheres if s.dim >= 1]
        if not spheres:
            E = sphere_complex(n)
            X, _ = glue_along(X, X.restrict_full([0]), E, E.restrict_full([0]), {0: 0})
        else:
            X = _attach_record(X, carriers, n, spheres)
    return X


def _attach_record(X, carriers, n, spheres):
    """Attach one record's sphere products along a bouquet of its spheres.

    The sphere products are joined into one connected sum at a single
    vertex w, the first vertex of the first section; every section passes
    through w, so the sections form a wedge of spheres inside the sum.  The
    abstract wedge of the sphere domains maps to the base: a sphere with a
    live target by its degree map onto the carrier, one without constantly
    to the wedge point, vertex 0.  Each domain's first vertex goes to
    codomain vertex 0 and each carrier sends that to the wedge point, so
    the wedge vertex has one image.  The record attaches through a single
    mapping cylinder of that map.  The one shortcut: a lone sphere whose
    coefficient is +-1 needs no cylinder, and its section lands on the
    carrier itself.

    A section is its dome times vertex 0 of the fibre sphere, so dome
    vertex u is vertex u * |fibre| of the sphere product.  Each gluing
    numbers the new vertices after X's, so no vertex needs a tag.  Only a
    degree map's dome times its fibre is not a shared standard piece.
    """
    direct = False
    elems = []
    for s in spheres:
        live = [(t, v) for t, v in s.coefficients if v]
        if live and abs(live[0][1]) == 1 and len(spheres) == 1:
            direct = True
            dome, piece = sphere_complex(s.dim), sphere_product(s.dim, n - s.dim)
            image = carriers[live[0][0]]
        elif live:
            target, value = live[0]
            f = degree_map(s.dim, value)
            dome, piece = f.domain, product_complex(f.domain, sphere_complex(n - s.dim))
            image = {v: carriers[target][w] for v, w in f.vertex_map.items()}
        else:
            dome, piece = sphere_complex(s.dim), sphere_product(s.dim, n - s.dim)
            image = {v: 0 for v in dome.vertices}
        elems.append((s.dim, dome, image, piece))

    sections = []
    for dim, dome, _, piece in elems:
        m = n - dim + 2  # the fibre's vertices
        section = {u: u * m for u in dome.vertices}
        join = section[dome.vertices[0]]
        if not sections:
            E, w = piece, join
        else:
            placed = set().union(*(sec.values() for sec in sections))
            E, mL = connected_sum_with_maps(
                E, piece, n,
                avoid_K=placed - {w}, avoid_L=set(section.values()) - {join},
                join_K=w, join_L=join,
            )
            section = {u: mL[v] for u, v in section.items()}
        sections.append(section)

    if direct:
        landings = [elems[0][2]]
    else:
        C, wedge_maps = wedge_complexes([dome for _, dome, _, _ in elems])
        phi = {}
        for vmap, (_, dome, image, _) in zip(wedge_maps, elems):
            for v in dome.vertices:
                if phi.setdefault(vmap[v], image[v]) != image[v]:
                    raise RuntimeError("bouquet vertex has two images in the base")
        D = X.restrict_full(phi.values())
        cyl, dlab, clab = mapping_cylinder(SimplicialMap(C, D, phi))
        X, mL = glue_along(X, D, cyl, cyl.restrict_full(clab.values()), clab)
        landings = [
            {u: mL[dlab[cv]] for u, cv in vmap.items()} for vmap in wedge_maps
        ]

    iso = {}
    for landing, section in zip(landings, sections):
        for u, v in section.items():
            iso[landing[u]] = v
    X, _ = glue_along(X, X.restrict_full(iso), E, E.restrict_full(iso.values()), iso)
    return X


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingVerdict:
    ring_label: str
    tier: int
    homology_match: bool
    ring_match: bool | None
    seconds: float
    witnesses: tuple


@dataclass(frozen=True)
class VerificationReport:
    """A verify's verdicts.  ``formula`` is the checked integral formula
    ring of a tier-2 verify, None otherwise; :meth:`to_json` leaves it out."""

    descriptor: ReebDescriptor
    tier: int
    verdicts: tuple
    euler_match: bool | None
    euler_witness: str | None
    formula: PresentedGradedRing | None = None

    @property
    def ok(self) -> bool:
        if self.euler_match is False:
            return False
        return all(
            v.homology_match and v.ring_match is not False for v in self.verdicts
        )

    def to_json(self) -> dict:
        return {
            "descriptor": serialize_descriptor(self.descriptor),
            "tier": self.tier,
            "ok": self.ok,
            "euler_match": self.euler_match,
            "euler_witness": self.euler_witness,
            "rings": [
                {
                    "ring": v.ring_label,
                    "tier": v.tier,
                    "homology_match": v.homology_match,
                    "ring_match": v.ring_match,
                    "seconds": round(v.seconds, 4),
                    "witnesses": list(v.witnesses),
                }
                for v in self.verdicts
            ],
        }


def _module_witnesses(kind, expected, got):
    out = []
    # rank and torsion_at read 0 and () past a module's top degree
    for k in range(max(expected.max_degree, got.max_degree) + 1):
        if expected.rank(k) != got.rank(k):
            out.append(
                f"{kind} degree {k}: expected rank {expected.rank(k)}, got {got.rank(k)}"
            )
        if expected.torsion_at(k) != got.torsion_at(k):
            out.append(
                f"{kind} degree {k}: expected torsion {expected.torsion_at(k)}, "
                f"got {got.torsion_at(k)}"
            )
    return out


def _homology_witnesses(expected, cx, K, R) -> list:
    """The tier-1 complex's, and with a model K its, module witnesses over R."""
    out = _module_witnesses("tier-1 homology", expected, homology_of_chain_complex(cx, R))
    if K is not None:
        out += _module_witnesses("tier-2 homology", expected, homology_of_complex(K, R))
    return out


class _OverZ:
    """The formula ring against the measured integral ring, compared once.

    The measured integral ring is compared at the measured rings' top
    degree, the descriptor's dimension, which a model of lower dimension
    lacks.  Every ring's measured ring, and every reduction of the formula
    ring, keeps the top degree and ranks of its integral ring and reads its
    pairing invariants off the same integral divisors by ``rank_over``
    (see :meth:`~reeb_bubble.graded.PresentedGradedRing.reduced`).  So when
    the comparison over Z is consistent, so is every ring's.  ``seconds``
    is the time spent here, which no ring is charged.
    """

    def __init__(self, formula):
        self.formula = formula
        self.agrees = {}  # measured integral ring -> does the formula agree
        self.seconds = 0.0

    def __call__(self, measured) -> bool:
        integral = measured.integral
        if integral not in self.agrees:
            start = time.perf_counter()
            at_top = integral.reduced(integral.ring, measured.top_degree)
            self.agrees[integral] = compare_invariants(self.formula, at_top).is_consistent
            self.seconds += time.perf_counter() - start
        return self.agrees[integral]


def _ring_witness(d: ReebDescriptor, formula, R, K, over_z) -> str | None:
    """Why the formula ring and the cup ring of the model K differ over R,
    or None when their pairing invariants agree.

    ``formula`` is the checked integral formula ring, or the message of the
    check it failed; either holds for every ring.  The verdict is read off
    the comparison over Z (``over_z``), made once per verify; this ring's
    own comparison of the reductions runs only where that one finds a
    difference, and gives this ring's witness, if any.
    """
    if isinstance(formula, str):
        return f"formula: {formula}"
    try:
        measured = cup_ring_of_complex(K, R, top_degree=d.n)
    except (RuntimeError, ValueError) as exc:
        # a failed self-check, or a refusal (torsion, no connectivity)
        return f"tier-2 oracle: {exc}"
    if over_z(measured):
        return None
    verdict = compare_invariants(formula.reduced(R), measured)
    return None if verdict.is_consistent else f"ring invariants: {verdict.witness}"


def verify_descriptor(
    d: ReebDescriptor, rings, tier="auto"
) -> VerificationReport:
    """Compare the formula engine against the oracles ring by ring.

    Tier-1 homology always runs.  The simplicial tier additionally checks
    per-degree modules and every pairing invariant of the measured cup ring
    when the descriptor supports it ("auto") or is forced to ("2", raising
    if unsupported).  All verdicts land in the report; nothing raises on a
    mismatch.  A failed self-check inside the measured cup ring (a
    ``RuntimeError``), or its refusal of the measured complex (a
    ``ValueError``: torsion, or no connectivity), is recorded as a
    ``tier-2 oracle`` witness on that ring, not raised; a formula ring that
    fails its own checks gives a ``formula`` witness, and that ring is not
    compared.  A ring's homology matches when it has no witness before the
    ring check.

    The expected homology, free with the same ranks over every ring, is
    read over Z for every module check and the Euler check; it and the
    tier-1 complex take the base classes off the handle expressions, so
    tier 1 builds no ring.  At tier 2 the formula ring and the measured cup
    ring are each built and checked once, over Z, and every ring reads
    their reductions, whose pairings are read off the integral divisors
    (see :func:`~reeb_bubble.graded.pairing_invariants`).  So a table that
    fails its check over Z gives its witness on every ring, also where the
    reduced table would pass, as a sign error does over Z/2.

    Verdicts are compared once over Z: the tier-1 and tier-2 integral
    homology against the expected module, and the formula ring against the
    measured integral ring (:class:`_OverZ`).  Every ring's modules and
    rings derive from those integral ones, so a match over Z is a match
    over every ring.  A ring runs its own comparison only where the
    integral one finds a difference, so each witness keeps its text and its
    ring.  A ring's ``seconds`` leave out the shared comparisons.  The
    measured ring is still asked for once per ring, through this module's
    binding of ``cup_ring_of_complex``, which makes the per-ring torsion
    refusals.  An empty ``rings`` raises ``ValueError``: a report with no
    verdict would read ok having checked nothing.
    """
    if not (rings := list(rings)):
        raise ValueError("verify_descriptor needs at least one coefficient ring")
    if tier == "auto":
        use_tier2 = tier2_obstruction(d) is None
    elif tier in (2, "2"):
        use_tier2 = True
    elif tier in (1, "1"):
        use_tier2 = False
    else:
        raise ValueError(f"unknown tier {tier!r}")
    # raises TierError when d has no simplicial model
    K = simplicial_model(d) if use_tier2 else None
    Z = CoefficientRing.integers()
    cx = assemble_chain_complex(d)
    expected = homology_of_descriptor(d, Z)
    formula = None
    if K is not None:
        try:
            formula = cohomology_ring_of_descriptor(d, Z).ring
        except (RuntimeError, ValueError) as exc:
            # a failed self-check of the formula ring, such as graded commutativity
            formula = str(exc)
    homology_agrees = expected.is_free and not _homology_witnesses(expected, cx, K, Z)
    over_z = _OverZ(formula)

    euler_match = euler_witness = None
    verdicts = []
    for R in rings:
        start = time.perf_counter()
        shared = over_z.seconds
        witnesses = [] if homology_agrees else _homology_witnesses(expected, cx, K, R)
        homology_match = not witnesses
        ring_match = None
        if K is not None:
            witness = _ring_witness(d, formula, R, K, over_z)
            ring_match = witness is None
            if witness:
                witnesses.append(witness)
        verdicts.append(
            RingVerdict(
                ring_label=R.label,
                tier=2 if K is not None else 1,
                homology_match=homology_match,
                ring_match=ring_match,
                seconds=time.perf_counter() - start - (over_z.seconds - shared),
                witnesses=tuple(witnesses),
            )
        )

    if K is not None:
        formula_euler = sum((-1) ** i * b for i, b in enumerate(expected.free_ranks))
        measured_euler = euler_characteristic(K)
        euler_match = formula_euler == measured_euler
        if not euler_match:
            euler_witness = (
                f"euler characteristic: expected {formula_euler}, "
                f"got {measured_euler}"
            )

    return VerificationReport(
        descriptor=d,
        tier=2 if K is not None else 1,
        verdicts=tuple(verdicts),
        euler_match=euler_match,
        euler_witness=euler_witness,
        formula=formula if isinstance(formula, PresentedGradedRing) else None,
    )


def format_report(report: VerificationReport) -> str:
    """Human-readable verdict table, one line per ring."""
    lines = [f"tier {report.tier}  overall: {'ok' if report.ok else 'MISMATCH'}"]
    for v in report.verdicts:
        ring_part = (
            "-" if v.ring_match is None else ("ok" if v.ring_match else "FAIL")
        )
        lines.append(
            f"  {v.ring_label:>4}  homology {'ok' if v.homology_match else 'FAIL'}"
            f"  ring {ring_part}  {v.seconds:.2f}s"
        )
        for w in v.witnesses:
            lines.append(f"        {w}")
    if report.euler_witness:
        lines.append(f"  {report.euler_witness}")
    return "\n".join(lines)
