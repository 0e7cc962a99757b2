"""Graded modules and presented graded-commutative rings.

Every ring here is a free module over its coefficient ring with a
distinguished homogeneous basis, an implicit unit in degree 0, and
multiplication stored as structure constants.  The constructors build the
cohomology rings of spheres, products, connected sums and wedges of such
manifolds; the comparison layer reduces rings to basis-free pairing
invariants so that two independently produced presentations can be matched
honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .coefficients import (
    CoefficientRing,
    RingMismatchError,
    field_reduce,
    integer_elementary_divisors,
    is_int,
    rank_over,
)

__all__ = [
    "GradedModule",
    "BasisElement",
    "PresentedGradedRing",
    "Sphere",
    "Product",
    "ConnSum",
    "dimension",
    "validate_expr",
    "sphere_ring",
    "tensor_ring",
    "connsum_ring",
    "cps_cohomology",
    "gcps_cohomology",
    "PairingInvariants",
    "pairing_invariants",
    "compare_invariants",
    "Verdict",
]


# ---------------------------------------------------------------------------
# Graded modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedModule:
    """Finitely generated graded module: free ranks plus torsion divisors."""

    ring: CoefficientRing
    free_ranks: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        ranks = tuple(int(r) for r in self.free_ranks)
        tors = tuple(tuple(t) for t in self.torsion)
        if len(tors) < len(ranks):
            tors = tors + ((),) * (len(ranks) - len(tors))
        if len(tors) > len(ranks):
            raise ValueError("torsion listed beyond max degree")
        if any(r < 0 for r in ranks):
            raise ValueError("negative rank")
        for t in tors if any(tors) else ():  # a free module has nothing to check
            if any(d < 2 for d in t):
                raise ValueError("torsion divisors must exceed 1")
            if t and self.ring.is_field:
                raise ValueError("torsion over a field")
        object.__setattr__(self, "free_ranks", ranks)
        object.__setattr__(self, "torsion", tors)

    @property
    def max_degree(self) -> int:
        return len(self.free_ranks) - 1

    def rank(self, k: int) -> int:
        return self.free_ranks[k] if 0 <= k <= self.max_degree else 0

    def torsion_at(self, k: int) -> tuple[int, ...]:
        return self.torsion[k] if 0 <= k <= self.max_degree else ()

    @property
    def total_rank(self) -> int:
        return sum(self.free_ranks)

    @property
    def is_free(self) -> bool:
        return all(not t for t in self.torsion)

    def padded(self, max_degree: int) -> "GradedModule":
        if max_degree < self.max_degree:
            raise ValueError("cannot shrink a module by padding")
        extra = max_degree - self.max_degree
        return GradedModule(
            self.ring, self.free_ranks + (0,) * extra, self.torsion + ((),) * extra
        )


# ---------------------------------------------------------------------------
# Ring presentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisElement:
    """A homogeneous basis class of a presented ring.

    ``provenance`` is a tagged tuple: ("base",), ("inclusion",),
    ("bubbled", record_index, sphere_index), ("top", record_index), or
    ("sphere",) on a core's class that one of its sphere factors gives.
    """

    id: str
    degree: int
    provenance: tuple = ("base",)


class PresentedGradedRing:
    """Graded-commutative ring with unit, free basis and structure constants.

    ``products`` maps ordered id pairs to coordinate vectors (id -> scalar);
    absent pairs multiply to zero.  Construction validates degree
    additivity, graded commutativity and associativity exhaustively, but
    visits only the pairs and triples where the two sides can differ.  A
    pair with neither order in the table is 0 = ±0, so commutativity is
    checked on each key against its flipped partner.  (ab)c is zero unless
    (a,b) is a key and a(bc) is zero unless (b,c) is one, so associativity
    is checked on (a,b,c) and (c,a,b) for each key (a,b) and each basis
    element c whose degree keeps the triple within the top degree: the
    cost is O(|products|·basis) instead of O(basis³).

    An integral ring reduces into any other coefficient ring by
    :meth:`reduced`, unchecked.  The reduction keeps its checked integral
    ring as ``integral``, and :func:`pairing_invariants` reads its pairings
    off that ring's divisors.
    """

    integral = None  # on a reduction: the checked integral ring it reduces
    _divisors = None  # on a reduced integral ring: (p, q) -> pairing divisors

    def __init__(self, ring, top_degree, basis, products, *, check=True):
        self.ring = ring
        self.top_degree = int(top_degree)
        self.basis = tuple(basis)
        by_id, by_degree = self.by_id, self._by_degree = {}, {}
        for e in self.basis:
            if e.degree < 1:
                raise ValueError(f"basis element {e.id} has degree < 1")
            if e.id in by_id:
                raise ValueError(f"duplicate basis id {e.id}")
            by_id[e.id] = e
            by_degree[e.degree] = by_degree.get(e.degree, ()) + (e,)
        convert, zero = ring.convert, ring.zero()
        table = {}
        for key, vec in products.items():
            clean = {ic: c for ic, v in vec.items() if (c := convert(v)) != zero}
            if clean:
                table[key] = clean
        self.products = table
        if check:
            self._check()

    # -- queries ----------------------------------------------------------

    def degree_basis(self, k: int) -> tuple[BasisElement, ...]:
        """The basis classes of degree k in basis order, stored when built."""
        return self._by_degree.get(k, ())

    def free_ranks(self) -> tuple[int, ...]:
        ranks = [0] * (self.top_degree + 1)
        ranks[0] = 1
        for e in self.basis:
            if e.degree > self.top_degree:
                raise ValueError("basis above top degree")
            ranks[e.degree] += 1
        return tuple(ranks)

    def product(self, ida: str, idb: str) -> dict:
        return dict(self.products.get((ida, idb), {}))

    def reduced(self, R: CoefficientRing, top_degree: int | None = None) -> "PresentedGradedRing":
        """This integral ring with its structure constants reduced into R.

        The result is not checked, and needs no check when this ring was:
        Z -> R is a ring homomorphism, so degree additivity, graded
        commutativity and associativity over Z hold over R too.
        ``top_degree`` may raise the top; no product reaches it.
        """
        if self.ring.kind != "Z":
            raise RingMismatchError(f"only an integral ring reduces; got {self.ring.label}")
        if self._divisors is None:
            self._divisors = {}
        top = self.top_degree if top_degree is None else top_degree
        ring = PresentedGradedRing(R, top, self.basis, self.products, check=False)
        ring.integral = self
        return ring

    # -- validation --------------------------------------------------------

    def _check(self):
        """Reject tables that are not graded-commutative and associative rings.

        Only the table's keys are visited.  Commutativity checks each key
        (a,b) against (b,a), a missing pair counting as 0; that covers every
        pair, since a pair missing both ways is 0 both ways.  Associativity
        then checks (ab)c = a(bc) for each key (a,b) and each basis c, which
        covers every triple (x,y,z): if xy = 0 and yz != 0, commutativity
        gives x(yz) = ±(yz)x = ±y(zx) by the checked triple (y,z,x), and
        y(zx) = ±(zx)y = ±z(xy) = 0 by the checked triple (z,x,y), or
        directly if zx = 0.  Triples whose degrees sum above the top are 0
        on both sides and are skipped.
        """
        for (ia, ib), vec in self.products.items():
            a, b = self.by_id.get(ia), self.by_id.get(ib)
            if a is None or b is None:
                raise ValueError(f"product table references unknown id in ({ia},{ib})")
            total = a.degree + b.degree
            if total > self.top_degree:
                raise ValueError(f"nonzero product {ia}·{ib} above top degree")
            for ic in vec:
                c = self.by_id.get(ic)
                if c is None:
                    raise ValueError(f"product {ia}·{ib} hits unknown id {ic}")
                if c.degree != total:
                    raise ValueError(f"product {ia}·{ib} violates degree additivity")
        ring, table, by_id = self.ring, self.products, self.by_id
        for (ia, ib), ab in table.items():
            ba = table.get((ib, ia), {})
            if by_id[ia].degree % 2 and by_id[ib].degree % 2:
                ba = {k: ring.convert(-v) for k, v in ba.items()}  # the table is canonical
            if ab != ba:
                raise ValueError(f"graded commutativity fails on ({ia},{ib})")

        zero = ring.zero()

        def expand(terms):
            # Σ coef·vec over (coef, vec) terms, reduced, zeros dropped
            out: dict = {}
            for coef, vec in terms:
                for ic, c in vec.items():
                    out[ic] = out.get(ic, zero) + coef * c
            return {ic: c for ic, v in out.items() if (c := ring.convert(v)) != zero}

        def times_right(vec, iz):  # (Σ vec[k]·k)·z
            return expand((coef, table.get((k, iz), {})) for k, coef in vec.items())

        def times_left(ix, vec):  # x·(Σ vec[k]·k)
            return expand((coef, table.get((ix, k), {})) for k, coef in vec.items())

        for (ia, ib), ab in table.items():
            room = self.top_degree - by_id[ia].degree - by_id[ib].degree
            # a c of higher degree puts both sides above the top
            for ic in (c.id for k in range(1, room + 1) for c in self.degree_basis(k)):
                if times_right(ab, ic) != times_left(ia, table.get((ib, ic), {})):
                    raise ValueError(f"associativity fails on ({ia},{ib},{ic})")

    def __repr__(self):
        return (
            f"PresentedGradedRing({self.ring.label}, top={self.top_degree}, "
            f"basis={len(self.basis)})"
        )


# ---------------------------------------------------------------------------
# Manifold expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sphere:
    k: int


@dataclass(frozen=True)
class Product:
    left: "ManifoldExpr"
    right: "ManifoldExpr"


@dataclass(frozen=True)
class ConnSum:
    left: "ManifoldExpr"
    right: "ManifoldExpr"


ManifoldExpr = Sphere | Product | ConnSum


def dimension(e: ManifoldExpr) -> int:
    if isinstance(e, Sphere):
        return e.k
    if isinstance(e, Product):
        return dimension(e.left) + dimension(e.right)
    if isinstance(e, ConnSum):
        return dimension(e.left)
    raise TypeError(f"not a manifold expression: {e!r}")


def validate_expr(e: ManifoldExpr) -> None:
    if isinstance(e, Sphere):
        if not is_int(e.k):
            raise TypeError(f"sphere dimension must be an integer, got {e.k!r}")
        if e.k < 1:
            raise ValueError(f"sphere dimension must be >= 1, got {e.k}")
        return
    if isinstance(e, Product):
        validate_expr(e.left)
        validate_expr(e.right)
        return
    if isinstance(e, ConnSum):
        validate_expr(e.left)
        validate_expr(e.right)
        if dimension(e.left) != dimension(e.right):
            raise ValueError(
                "connected-sum factors must share a dimension "
                f"({dimension(e.left)} vs {dimension(e.right)})"
            )
        return
    raise TypeError(f"not a manifold expression: {e!r}")


# ---------------------------------------------------------------------------
# Ring constructors
# ---------------------------------------------------------------------------


SPHERE = ("sphere",)  # provenance of a class that a sphere factor gives


def sphere_ring(k: int, R: CoefficientRing) -> PresentedGradedRing:
    """Cohomology ring of the k-sphere: one generator squaring to zero."""
    if k < 1:
        raise ValueError("sphere_ring needs k >= 1; the 0-sphere ring is not free rank-1 in top degree")
    gen = BasisElement("e1", k, SPHERE)
    return PresentedGradedRing(R, k, (gen,), {})


def tensor_ring(A: PresentedGradedRing, B: PresentedGradedRing) -> PresentedGradedRing:
    """Graded tensor product with the Koszul sign (-1)^{deg b1 · deg a2}.

    Basis order: A's classes paired with the unit, then the unit paired
    with B's classes, then the mixed pairs, the order that
    ``descriptor.base_classes`` walks.  A class paired with the unit keeps
    its provenance, so a sphere factor's class stays marked ("sphere",).
    """
    if A.ring != B.ring:
        raise RingMismatchError("tensor factors over different rings")
    ring = A.ring
    pairs: list[tuple] = [(a, None) for a in A.basis]
    pairs += [(None, b) for b in B.basis]
    pairs += [(a, b) for a in A.basis for b in B.basis]
    ids = [f"e{i}" for i in range(1, len(pairs) + 1)]
    index = {}
    basis = []
    for ident, (a, b) in zip(ids, pairs):
        degree = (a.degree if a else 0) + (b.degree if b else 0)
        provenance = b.provenance if a is None else a.provenance if b is None else ("base",)
        basis.append(BasisElement(ident, degree, provenance))
        index[(a.id if a else None, b.id if b else None)] = ident

    def half_product(src: PresentedGradedRing, x, y) -> dict:
        """Component product in one factor; key None stands for the unit."""
        if x is None and y is None:
            return {None: ring.one()}
        if x is None:
            return {y.id: ring.one()}
        if y is None:
            return {x.id: ring.one()}
        return src.products.get((x.id, y.id), {})

    products = {}
    for (a1, b1), (a2, b2) in iter_product(pairs, pairs):
        sign = -1 if ((b1.degree if b1 else 0) % 2 and (a2.degree if a2 else 0) % 2) else 1
        out = {}
        for ka, ca in half_product(A, a1, a2).items():
            for kb, cb in half_product(B, b1, b2).items():
                coeff = ring.convert(sign) * ca * cb
                key = index[(ka, kb)]
                out[key] = out.get(key, ring.zero()) + coeff
        out = {k: v for k, v in out.items() if v != ring.zero()}
        if out:
            ia = index[(a1.id if a1 else None, b1.id if b1 else None)]
            ib = index[(a2.id if a2 else None, b2.id if b2 else None)]
            products[(ia, ib)] = out
    return PresentedGradedRing(ring, A.top_degree + B.top_degree, basis, products)


def connsum_ring(A1: PresentedGradedRing, A2: PresentedGradedRing) -> PresentedGradedRing:
    """Connected-sum ring: middle degrees add, top degrees are identified.

    The top-degree quotient follows the literal rule that the pair
    (a1, a2) of top generators becomes zero, so A2's top generator maps to
    MINUS the surviving class.  The conventional oriented identification
    differs by one basis sign, which no pairing invariant can see.  The
    classes below the top keep their provenance.
    """
    if A1.ring != A2.ring:
        raise RingMismatchError("connected-sum factors over different rings")
    ring = A1.ring
    d = A1.top_degree
    if d != A2.top_degree or d < 1:
        raise ValueError(
            f"connected sum needs equal positive top degrees, got {A1.top_degree} and {A2.top_degree}"
        )
    tops1 = A1.degree_basis(d)
    tops2 = A2.degree_basis(d)
    if len(tops1) != 1 or len(tops2) != 1:
        raise ValueError("connected sum needs rank-1 free top pieces")
    top1, top2 = tops1[0].id, tops2[0].id

    sides = (("l", A1, top1, 1), ("r", A2, top2, -1))
    middle = [
        (side, e) for side, src, _, _ in sides for e in src.basis if e.degree < d
    ]
    ids = [f"e{i}" for i in range(1, len(middle) + 2)]
    top_id = ids[-1]
    index = {}
    basis = []
    for ident, (side, e) in zip(ids, middle):
        basis.append(BasisElement(ident, e.degree, e.provenance))
        index[(side, e.id)] = ident
    basis.append(BasisElement(top_id, d))

    products = {}
    for side, src, top_old, orient in sides:
        for (ia, ib), vec in src.products.items():
            ea, eb = src.by_id[ia], src.by_id[ib]
            if ea.degree >= d or eb.degree >= d:
                continue
            out = {}
            for ic, c in vec.items():
                if ic == top_old:
                    out[top_id] = out.get(top_id, ring.zero()) + ring.convert(orient) * c
                else:
                    out[index[(side, ic)]] = c
            out = {k: v for k, v in out.items() if v != ring.zero()}
            if out:
                products[(index[(side, ia)], index[(side, ib)])] = out
    return PresentedGradedRing(ring, d, basis, products)


def cps_cohomology(e: ManifoldExpr, R: CoefficientRing) -> PresentedGradedRing:
    """Cohomology ring of a sphere/product/connected-sum expression."""
    validate_expr(e)
    return _cps(e, R)


def _cps(e: ManifoldExpr, R: CoefficientRing) -> PresentedGradedRing:
    if isinstance(e, Sphere):
        return sphere_ring(e.k, R)
    if isinstance(e, Product):
        return tensor_ring(_cps(e.left, R), _cps(e.right, R))
    return connsum_ring(_cps(e.left, R), _cps(e.right, R))


def gcps_cohomology(summands, R: CoefficientRing) -> PresentedGradedRing:
    """Cohomology ring of a wedge of expression manifolds, built in one pass.

    Positive degrees are the direct sum of the summands' positive parts;
    products across different wedge summands vanish.  The empty wedge is
    the one-point space: the unit-only ring.  A sphere summand adds one
    class and builds no ring; a product or connected-sum summand is built
    by :func:`tensor_ring` and :func:`connsum_ring`, and its table copied.
    Each class is named as it is listed, with the ids of
    ``descriptor.base_classes``: the j-th class a sphere factor gives
    (provenance ("sphere",)) is nu<j>, the class at wedge position i is
    otherwise e<i>.  The wedge's classes have provenance ("base",).
    """
    basis: list[BasisElement] = []
    products = {}
    spheres = top = 0
    for e in summands:
        validate_expr(e)
        top = max(top, dimension(e))
        if isinstance(e, Sphere):
            classes, table = (BasisElement(None, e.k, SPHERE),), {}
        else:
            core = _cps(e, R)
            classes, table = core.basis, core.products
        index = {}
        for c in classes:
            if c.provenance == SPHERE:
                spheres += 1
                index[c.id] = f"nu{spheres}"
            else:
                index[c.id] = f"e{len(basis) + 1}"
            basis.append(BasisElement(index[c.id], c.degree))
        for (ia, ib), vec in table.items():
            products[(index[ia], index[ib])] = {index[ic]: v for ic, v in vec.items()}
    return PresentedGradedRing(R, top, basis, products)


# ---------------------------------------------------------------------------
# Invariants, comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingInvariants:
    """Basis-free invariants of the multiplication H^p x H^q -> H^{p+q}.

    ``map_*`` describes the flattened multiplication map (columns = basis
    pairs); ``form_*`` describes its adjoint H^p -> Hom(H^q, H^{p+q}).
    Both are invariant under basis changes in all three degrees; carrying
    both lets comparisons catch strictly more than either alone.
    """

    p: int
    q: int
    ring_label: str
    map_rank: int
    form_rank: int
    map_divisors: tuple[int, ...] | None = None
    form_divisors: tuple[int, ...] | None = None


def _invariants_of_matrix(ring: CoefficientRing, columns: list[dict]):
    """Rank, and over Z the elementary divisors, of ``{row: value}`` columns.

    ``columns`` holds only the nonzero columns: dropping zero columns
    changes neither the rank nor the nonzero elementary divisors.
    """
    if not columns:
        return 0, (() if ring.kind == "Z" else None)
    if ring.kind == "Z":
        divisors = integer_elementary_divisors(columns)
        return len(divisors), divisors
    return field_reduce(ring, columns), None


def _pairing_matrices(A: PresentedGradedRing, p: int, q: int):
    """The map's and the form's nonzero ``{row: value}`` columns over A's ring."""
    P = A.degree_basis(p)
    Q = A.degree_basis(q)
    T = A.degree_basis(p + q)
    tindex = {e.id: i for i, e in enumerate(T)}
    nt = len(T)

    map_cols: list[dict] = []
    form_cols: list[dict] = []
    for a in P:
        form = {}
        for j, b in enumerate(Q):
            product = A.products.get((a.id, b.id))
            if product:
                col = {tindex[ic]: c for ic, c in product.items()}
                map_cols.append(col)
                for t, c in col.items():
                    form[j * nt + t] = c
        if form:
            form_cols.append(form)
    return map_cols, form_cols


def pairing_invariants(A: PresentedGradedRing, p: int, q: int) -> PairingInvariants:
    """Invariants of the multiplication H^p x H^q -> H^{p+q} of ``A``.

    Both matrices are read off the product table as ``{row: value}``
    columns; the table holds no zero entries, so only the nonzero columns
    are built and no dense matrix is allocated.  The map has one row per
    target class and one column per basis pair; the form has one row per
    (H^q class, target class) pair and one column per H^p class.

    A ring made by :meth:`PresentedGradedRing.reduced` has the matrices of
    its integral ring reduced into its coefficients, so its invariants are
    read off the integral divisors by
    :func:`~reeb_bubble.coefficients.rank_over`: over Q their count, over
    Z/p those prime to p.  The divisors are kept on the integral ring, so
    its reductions into every ring share one elimination per matrix.  Any
    other ring's matrices are eliminated over its own coefficients.
    """
    if p < 1 or q < 1 or p + q > A.top_degree:
        raise ValueError(f"degree pair ({p},{q}) out of range for top {A.top_degree}")
    Z = A.integral
    if Z is None:
        map_cols, form_cols = _pairing_matrices(A, p, q)
        map_rank, map_div = _invariants_of_matrix(A.ring, map_cols)
        form_rank, form_div = _invariants_of_matrix(A.ring, form_cols)
        return PairingInvariants(
            p, q, A.ring.label, map_rank, form_rank, map_div, form_div
        )
    divisors = Z._divisors.get((p, q))
    if divisors is None:
        divisors = Z._divisors[(p, q)] = tuple(
            _invariants_of_matrix(Z.ring, cols)[1] for cols in _pairing_matrices(Z, p, q)
        )
    map_div, form_div = divisors
    R = A.ring
    kept = (None, None) if R.is_field else divisors
    return PairingInvariants(
        p, q, R.label, rank_over(R, map_div), rank_over(R, form_div), *kept
    )


@dataclass(frozen=True)
class Verdict:
    """Comparison outcome: ``distinguished`` is sound (rings differ);
    ``consistent`` is deliberately not a proof of isomorphism."""

    kind: str  # "consistent" | "distinguished"
    witness: str | None = None

    @property
    def is_consistent(self) -> bool:
        return self.kind == "consistent"


def compare_invariants(A: PresentedGradedRing, B: PresentedGradedRing) -> Verdict:
    if A.ring != B.ring:
        raise RingMismatchError("comparing rings over different coefficients")
    if A.top_degree != B.top_degree:
        return Verdict(
            "distinguished",
            f"top degree {A.top_degree} vs {B.top_degree}",
        )
    ra, rb = A.free_ranks(), B.free_ranks()
    if ra != rb:
        k = next(i for i, (x, y) in enumerate(zip(ra, rb)) if x != y)
        return Verdict("distinguished", f"degree {k} rank {ra[k]} vs {rb[k]}")
    for p in range(1, A.top_degree):
        for q in range(1, A.top_degree - p + 1):
            ia, ib = pairing_invariants(A, p, q), pairing_invariants(B, p, q)
            if ia != ib:
                return Verdict(
                    "distinguished",
                    f"pairing ({p},{q}): {_show_pairing(ia)} vs {_show_pairing(ib)}",
                )
    return Verdict("consistent")


def _show_pairing(inv: PairingInvariants) -> str:
    if inv.map_divisors is not None:
        return f"divisors {list(inv.map_divisors)}/form {list(inv.form_divisors)}"
    return f"rank {inv.map_rank}/form rank {inv.form_rank}"
