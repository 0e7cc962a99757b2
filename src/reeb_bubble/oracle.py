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
direct-sum shortcuts; tier 2 shares nothing with the formulas beyond the
descriptor itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .calculus import _homology, _ring_presentation
from .coefficients import CoefficientRing
from .descriptor import (
    ReebDescriptor,
    _require_valid,
    base_cohomology,
    serialize_descriptor,
)
from .graded import (
    ConnSum,
    GradedModule,
    PresentedGradedRing,
    Product,
    Sphere,
    compare_invariants,
)
from .simplicial import (
    ChainComplexZ,
    SimplicialComplex,
    SimplicialMap,
    connected_sum_with_maps,
    cup_ring_of_complex,
    degree_map,
    euler_characteristic,
    full_simplex,
    glue_along,
    homology_of_chain_complex,
    homology_of_complex,
    mapping_cylinder,
    product_complex,
    sphere_complex,
    wedge_complexes,
)

__all__ = [
    "TierError",
    "chain_model",
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
    the result is the homology of the glued space by Mayer-Vietoris.
    """
    _require_valid(d)
    return _assemble(d, base_cohomology(d.base, CoefficientRing.integers()))


def _assemble(d: ReebDescriptor, base: PresentedGradedRing) -> ChainComplexZ:
    """The tier-1 complex of a valid descriptor over its built base ring."""
    n = d.n
    labels: list[list] = [[] for _ in range(n + 1)]
    diff: dict = {}
    labels[0].append(("w", 0))
    for e in base.basis:
        labels[e.degree].append(("w", e.id))
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

    boundaries: list = [[]]
    for k in range(1, n + 1):
        index = {lab: i for i, lab in enumerate(labels[k - 1])}
        rows = [{} for _ in labels[k - 1]]
        for col, lab in enumerate(labels[k]):
            for low, c in diff.get(lab, {}).items():
                rows[index[low]][col] = c
        boundaries.append(rows)
    return ChainComplexZ(labels, boundaries)


def chain_model(d: ReebDescriptor, R: CoefficientRing) -> GradedModule:
    """Tier-1 homology: SNF of the assembled complex, no bookkeeping."""
    return homology_of_chain_complex(assemble_chain_complex(d), R)


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
    """
    if isinstance(expr, Sphere):
        K = sphere_complex(expr.k)
        return K, [{v: v for v in K.vertices}], K.vertices[0]
    if isinstance(expr, Product):
        K1, car1, b1 = _expr_complex(expr.left)
        K2, car2, b2 = _expr_complex(expr.right)
        P = product_complex(K1, K2)
        carriers = [{u: (c[u], b2) for u in c} for c in car1]
        carriers += [{u: (b1, c[u]) for u in c} for c in car2]
        return P, carriers, (b1, b2)
    raise TierError("connected-sum cores are not supported")


def _base_complex(d: ReebDescriptor):
    pieces = [_expr_complex(h) for h in d.base.handles]
    W, maps = wedge_complexes(
        [K for K, _, _ in pieces], [b for _, _, b in pieces]
    )
    carriers = {}
    count = 0
    for (K, cars, _), vmap in zip(pieces, maps):
        for car in cars:
            count += 1
            carriers[f"nu{count}"] = {u: vmap[v] for u, v in car.items()}
    return W, carriers, ("w",)


def _constant_map(K: SimplicialComplex) -> SimplicialMap:
    pt = full_simplex(0)
    return SimplicialMap(K, pt, {v: 0 for v in K.vertices})


def _sub(K: SimplicialComplex, vertices):
    return K.restrict_full(sorted(set(vertices), key=K.rank.__getitem__))


def simplicial_model(d: ReebDescriptor) -> SimplicialComplex:
    """Assemble the descriptor's space as one simplicial complex.

    Per record, the attached manifold is a connected sum of sphere products
    whose section spheres are kept intact by the facet-avoidance sets.  A
    sphere pairing a base class with coefficient of magnitude >= 2 (or an
    explicit 0) routes through the mapping cylinder of a degree map; a
    single-sphere record with a unimodular coefficient glues straight onto
    the carrier of its target class.  Records with several spheres chain
    their sections through shared vertices at the connected-sum interfaces,
    every shared vertex sitting over the wedge point, and attach along one
    mapping cylinder of the whole chain, so the identification locus stays
    connected.
    """
    _require_valid(d)
    reason = tier2_obstruction(d)
    if reason is not None:
        raise TierError(f"{reason}; use tier 1")
    n = d.n
    X, carriers, bp = _base_complex(d)

    for ridx, rec in enumerate(d.records, start=1):
        spheres = [s for s in rec.spheres if s.dim >= 1]
        if not spheres:
            E = sphere_complex(n)
            E = E.relabeled({v: ("pt", ridx, v) for v in E.vertices})
            X, _, _ = glue_along(
                X, _sub(X, [bp]), E, _sub(E, [("pt", ridx, 0)]), {bp: ("pt", ridx, 0)}
            )
        elif len(spheres) == 1:
            X = _attach_single(X, carriers, bp, n, ridx, spheres[0])
        else:
            X = _attach_chain(X, carriers, bp, n, ridx, spheres)
    return X


def _attach_single(X, carriers, bp, n, ridx, s):
    live = [(t, v) for t, v in s.coefficients if v]
    stored = list(s.coefficients)
    if live:
        target, value = live[0]
    elif stored:
        target, value = stored[0]
    else:
        target, value = None, None
    if target is not None and abs(value) == 1:
        f = None
    elif target is None:
        f = _constant_map(sphere_complex(s.dim))
    else:
        f = degree_map(s.dim, value)

    dome = f.domain if f is not None else sphere_complex(s.dim)
    E = product_complex(dome, sphere_complex(n - s.dim))
    fresh = {v: ("er", ridx, v) for v in E.vertices}
    E = E.relabeled(fresh)
    section = {u: fresh[(u, 0)] for u in dome.vertices}

    if f is None:
        landing = dict(carriers[target])
    else:
        cyl, dlab, clab = mapping_cylinder(f)
        tag = {v: ("cy", ridx, 1, v) for v in cyl.vertices}
        cyl = cyl.relabeled(tag)
        dlab = {u: tag[v] for u, v in dlab.items()}
        clab = {u: tag[v] for u, v in clab.items()}
        if target is None:
            pair = {bp: clab[0]}
        else:
            car = carriers[target]
            pair = {car[v]: clab[v] for v in car}
        X, _, mL = glue_along(
            X, _sub(X, pair.keys()), cyl, _sub(cyl, pair.values()), pair
        )
        landing = {u: mL[dlab[u]] for u in dome.vertices}

    iso = {landing[u]: section[u] for u in dome.vertices}
    X, _, _ = glue_along(X, _sub(X, iso.keys()), E, _sub(E, iso.values()), iso)
    return X


def _attach_chain(X, carriers, bp, n, ridx, spheres):
    """Attach a record whose generating polyhedron has several spheres.

    Consecutive sphere products share exactly one section vertex at their
    connected-sum interface; the shared vertices all sit over the wedge
    point, so the abstract chain of spheres maps consistently to the base.
    A sphere with a live target contributes its degree map's wing; one
    without maps constantly to the wedge point.  The chain is attached
    through a single mapping cylinder, which keeps the gluing locus
    connected instead of one sphere copy per summand.
    """
    elems = []
    for s in spheres:
        live = [(t, v) for t, v in s.coefficients if v]
        if live:
            target, value = live[0]
            f = degree_map(s.dim, value, anchor_preimages=2)
            dome = f.domain
            pre = sorted(
                v for v in dome.vertices
                if isinstance(v, int) and f.vertex_map[v] == 0
            )
        else:
            target, f = None, None
            dome = sphere_complex(s.dim)
            pre = sorted(dome.vertices)
        elems.append((s.dim, f, target, dome, pre))

    k = len(elems)
    links = []
    for j, (dim, f, target, dome, pre) in enumerate(elems):
        if 0 < j < k - 1 and len(pre) < 2:
            raise RuntimeError("chain link needs two anchor preimages")
        vl = pre[0] if j > 0 else None
        vr = (pre[1] if j > 0 else pre[0]) if j < k - 1 else None
        links.append((vl, vr))

    factors = []
    sections = []
    for dim, f, target, dome, pre in elems:
        factors.append(product_complex(dome, sphere_complex(n - dim)))
        sections.append({u: (u, 0) for u in dome.vertices})
    E = factors[0]
    for j in range(1, k):
        join_prev = sections[j - 1][links[j - 1][1]]
        join_new = (links[j][0], 0)
        avoid_prev = set()
        for sec in sections[:j]:
            avoid_prev |= set(sec.values())
        avoid_prev.discard(join_prev)
        avoid_new = set(sections[j].values())
        avoid_new.discard(join_new)
        E, mK, mL = connected_sum_with_maps(
            E, factors[j], n,
            avoid_K=avoid_prev, avoid_L=avoid_new,
            join_K=join_prev, join_L=join_new,
        )
        for sec in sections[:j]:
            for u in sec:
                sec[u] = mK[sec[u]]
        sections[j] = {u: mL[v] for u, v in sections[j].items()}
    fresh = {v: ("er", ridx, v) for v in E.vertices}
    E = E.relabeled(fresh)
    sections = [{u: fresh[v] for u, v in sec.items()} for sec in sections]

    # abstract chain of the sphere domains, one shared vertex per link
    cw = []
    C = None
    for j, (dim, f, target, dome, pre) in enumerate(elems):
        tag = {v: ("cw", ridx, j, v) for v in dome.vertices}
        piece = dome.relabeled(tag)
        if C is None:
            C = piece
            cw.append(dict(tag))
        else:
            shared_prev = cw[j - 1][links[j - 1][1]]
            shared_new = tag[links[j][0]]
            C, _, mLL = glue_along(
                C, _sub(C, [shared_prev]), piece, _sub(piece, [shared_new]),
                {shared_prev: shared_new},
            )
            cw.append({v: mLL[tag[v]] for v in dome.vertices})

    phi = {}
    for j, (dim, f, target, dome, pre) in enumerate(elems):
        for v in dome.vertices:
            img = bp if f is None else carriers[target][f.vertex_map[v]]
            phi[cw[j][v]] = img
    D = _sub(X, set(phi.values()))
    chain_map = SimplicialMap(C, D, phi)

    cyl, dlab, clab = mapping_cylinder(chain_map)
    tag = {v: ("cy", ridx, 0, v) for v in cyl.vertices}
    cyl = cyl.relabeled(tag)
    dlab = {u: tag[v] for u, v in dlab.items()}
    clab = {u: tag[v] for u, v in clab.items()}
    pair = {w: clab[w] for w in D.vertices}
    X, _, mL = glue_along(
        X, _sub(X, pair.keys()), cyl, _sub(cyl, pair.values()), pair
    )
    landing = {cv: mL[dlab[cv]] for cv in C.vertices}

    iso = {}
    for j, (dim, f, target, dome, pre) in enumerate(elems):
        for u in dome.vertices:
            iso[landing[cw[j][u]]] = sections[j][u]
    X, _, _ = glue_along(X, _sub(X, iso.keys()), E, _sub(E, iso.values()), iso)
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
    descriptor: ReebDescriptor
    tier: int
    verdicts: tuple
    euler_match: bool | None
    euler_witness: str | None

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
    ``tier-2 oracle`` witness on that ring, not raised.

    The descriptor is validated once and its integral base ring built once
    per call; that ring serves tier-1 assembly, every ring's expected
    homology and the Euler check.  The base ring over each other ring is
    built once, for its formula presentation.
    """
    if tier == "auto":
        use_tier2 = tier2_obstruction(d) is None
    elif tier in (2, "2"):
        use_tier2 = True
    elif tier in (1, "1"):
        use_tier2 = False
    else:
        raise ValueError(f"unknown tier {tier!r}")
    if use_tier2:
        # validates d, and raises TierError when d has no simplicial model
        K = simplicial_model(d)
    else:
        _require_valid(d)
        K = None
    n = d.n
    Z = CoefficientRing.integers()
    base_z = base_cohomology(d.base, Z)
    cx = _assemble(d, base_z)

    euler_match = None
    euler_witness = None
    verdicts = []
    for R in rings:
        start = time.perf_counter()
        witnesses = []
        expected = _homology(d, base_z, R)
        tier1 = homology_of_chain_complex(cx, R)
        witnesses += _module_witnesses("tier-1 homology", expected, tier1)
        ring_match = None
        if K is not None:
            tier2 = homology_of_complex(K, R)
            witnesses += _module_witnesses("tier-2 homology", expected, tier2)
        # read before the ring witnesses: an oracle message may say "homology"
        homology_match = not any("homology" in w for w in witnesses)
        if K is not None:
            base = base_z if R == Z else base_cohomology(d.base, R)
            formula_ring = _ring_presentation(d, R, base).ring
            try:
                measured = cup_ring_of_complex(K, R, top_degree=n)
            except (RuntimeError, ValueError) as exc:
                # a failed self-check, or a refusal (torsion, no connectivity)
                ring_match = False
                witnesses.append(f"tier-2 oracle: {exc}")
            else:
                verdict = compare_invariants(formula_ring, measured)
                ring_match = verdict.is_consistent
                if not ring_match:
                    witnesses.append(f"ring invariants: {verdict.witness}")
        verdicts.append(
            RingVerdict(
                ring_label=R.label,
                tier=2 if K is not None else 1,
                homology_match=homology_match,
                ring_match=ring_match,
                seconds=time.perf_counter() - start,
                witnesses=tuple(witnesses),
            )
        )

    if K is not None:
        betti = _homology(d, base_z, CoefficientRing.rationals()).free_ranks
        formula_euler = sum((-1) ** i * b for i, b in enumerate(betti))
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
