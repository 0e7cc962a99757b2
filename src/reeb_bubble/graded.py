"""Graded modules and presented graded-commutative rings.

Every ring here is a free module with a distinguished homogeneous basis,
an implicit unit in degree 0, and multiplication stored as integer
structure constants; the coefficient ring is read only where an invariant
is.  The integral cohomology ring of a sphere, product or connected-sum
expression, or of a wedge of them, is listed by one recursion over the
expression (Künneth and connected-sum rules, Hatcher §3.2 and Thm 3.15)
and built and checked as one ring; the comparison layer reduces rings to
basis-free pairing invariants so that two independently produced
presentations can be matched honestly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import (
    CoefficientRing,
    RingMismatchError,
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
        ranks = tuple(self.free_ranks)
        for r in ranks:
            if not is_int(r):
                raise TypeError(f"rank must be an integer, got {r!r}")
        tors = tuple(tuple(t) for t in self.torsion)
        if len(tors) < len(ranks):
            tors = tors + ((),) * (len(ranks) - len(tors))
        if len(tors) > len(ranks):
            raise ValueError("torsion listed beyond max degree")
        if any(r < 0 for r in ranks):
            raise ValueError("negative rank")
        for t in tors if any(tors) else ():  # a free module has nothing to check
            for d in t:
                if not is_int(d):
                    raise TypeError(f"torsion divisor must be an integer, got {d!r}")
                if d < 2:
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

    The id carries the class's origin: in a base ring nu<j> is the j-th
    class that a sphere factor gives and e<i> any other class at wedge
    position i; the formula ring adds b<r>.<j> for the j-th sphere of
    record r and t<r> for the record's top class.
    """

    id: str
    degree: int


class PresentedGradedRing:
    """Graded-commutative ring with unit, free basis and integer structure constants.

    ``products`` maps ordered id pairs to coordinate vectors (id -> int);
    absent pairs multiply to zero.  Every space this package presents is
    torsion-free, so its ring over any coefficient ring is the integral
    ring reduced (Hatcher, Thm 3A.3 and §3.2): the table is integral on
    every ring, and ``ring`` is a label read only where an invariant is
    (:func:`pairing_invariants`) or an entry is printed.  A constant, top
    degree or basis degree that is not an ``int`` (``True`` and ``2.0`` are
    not) raises ``TypeError``.

    Construction validates degree additivity, graded commutativity and
    associativity exhaustively, in integer arithmetic, but visits only the
    pairs and triples where the two sides can differ.  A pair with neither
    order in the table is 0 = ±0, so commutativity is checked on each key
    against its flipped partner.  (ab)c is zero unless (a,b) is a key and
    a(bc) is zero unless (b,c) is one, so associativity is checked on
    (a,b,c) and (c,a,b) for each key (a,b) and each basis element c whose
    degree keeps the triple within the top degree: the cost is
    O(|products|·basis) instead of O(basis³).  :meth:`over` reads the same
    checked table over another ring.
    """

    def __init__(self, ring, top_degree, basis, products):
        if not is_int(top_degree):
            raise TypeError(f"top degree must be an integer, got {top_degree!r}")
        self.ring = ring
        self.top_degree = top_degree
        self.basis = tuple(basis)
        by_id, by_degree = self.by_id, self._by_degree = {}, {}
        for e in self.basis:
            if not is_int(e.degree):
                raise TypeError(f"degree of {e.id} is not an integer: {e.degree!r}")
            if e.degree < 1:
                raise ValueError(f"basis element {e.id} has degree < 1")
            if e.id in by_id:
                raise ValueError(f"duplicate basis id {e.id}")
            by_id[e.id] = e
            by_degree[e.degree] = by_degree.get(e.degree, ()) + (e,)
        table = {}
        for (ia, ib), vec in products.items():
            clean = {}
            for ic, v in vec.items():
                if not is_int(v):
                    raise TypeError(f"structure constant of ({ia},{ib}) is not an integer: {v!r}")
                if v:
                    clean[ic] = v
            if clean:
                table[(ia, ib)] = clean
        self.products = table
        self._pairing_divisors = {}  # (p, q) -> the map's and the form's divisors
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

    def over(self, R: CoefficientRing, top: int | None = None) -> "PresentedGradedRing":
        """This ring read over R: the same table and divisor cache, unchecked.

        It needs no check when this ring was checked: Z -> R is a ring
        homomorphism, so degree additivity, graded commutativity and
        associativity over Z hold over R too.  Every ring read off one
        table shares one elimination per pairing matrix.  ``top`` may raise
        the top degree; no product reaches it.
        """
        view = object.__new__(PresentedGradedRing)
        view.__dict__.update(self.__dict__, ring=R)
        if top is not None:
            view.top_degree = top
        return view

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
        table, by_id = self.products, self.by_id
        for (ia, ib), ab in table.items():
            ba = table.get((ib, ia), {})
            if by_id[ia].degree % 2 and by_id[ib].degree % 2:
                ba = {k: -v for k, v in ba.items()}
            if ab != ba:
                raise ValueError(f"graded commutativity fails on ({ia},{ib})")

        def expand(terms):
            # Σ coef·vec over (coef, vec) terms, zeros dropped
            out: dict = {}
            for coef, vec in terms:
                for ic, c in vec.items():
                    out[ic] = out.get(ic, 0) + coef * c
            return {ic: c for ic, c in out.items() if c}

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


Z = CoefficientRing.integers()  # the label of every ring the constructors build


def _core_table(e: ManifoldExpr) -> tuple[list, dict]:
    """The integral cohomology of a validated expression, listed by position.

    Returns its positive-degree classes as (degree, given by a sphere
    factor) in the order that ``descriptor.BaseSpec.classes`` walks, and its
    products as {(i, j): {k: c}} over those positions, zeros left out.  The
    factors' tables hold no zeros, so neither does the result.  A product
    lists the left factor's classes, then the right factor's, then the
    mixed pairs, with the Koszul sign (-1)^{deg b1 · deg a2} on
    (a1⊗b1)(a2⊗b2).  A connected sum lists both sides' classes below the
    top, then the top; a product of two classes below the top is copied
    from its side, with the first side's top sent to the top and the
    second side's to MINUS the top, the literal rule that the pair of top
    generators becomes zero.  The oriented identification differs by one
    basis sign, which no pairing invariant can see.  Nothing is checked
    here: the one ring built from the table is.
    """
    if isinstance(e, Sphere):
        return [(e.k, True)], {}
    left, ltable = _core_table(e.left)
    right, rtable = _core_table(e.right)
    if isinstance(e, Product):
        nl, nr = len(left), len(right)

        def pos(a, b):  # a⊗b, None standing for the unit
            return a if b is None else nl + b if a is None else nl + nr + a * nr + b

        def deg(classes, i):
            return 0 if i is None else classes[i][0]

        def unit_terms(classes, table):
            # (x, y, x·y) for every nonzero product in the factor, unit included
            terms = [(None, None, {None: 1})]
            for a in range(len(classes)):
                terms += [(None, a, {a: 1}), (a, None, {a: 1})]
            return terms + [(a, b, vec) for (a, b), vec in table.items()]

        classes = left + right + [(da + db, False) for da, _ in left for db, _ in right]
        table = {}
        for a1, a2, avec in unit_terms(left, ltable):
            for b1, b2, bvec in unit_terms(right, rtable):
                if (a1, b1) == (None, None) or (a2, b2) == (None, None):
                    continue  # the unit is no basis class
                sign = -1 if deg(right, b1) % 2 and deg(left, a2) % 2 else 1
                table[(pos(a1, b1), pos(a2, b2))] = {
                    pos(ka, kb): sign * ca * cb
                    for ka, ca in avec.items()
                    for kb, cb in bvec.items()
                }
        return classes, table
    d = dimension(e)
    sides = ((left, ltable, 1), (right, rtable, -1))
    classes, below = [], []
    for side, _, _ in sides:
        if sum(k == d for k, _ in side) != 1:
            raise ValueError("connected sum needs rank-1 free top pieces")
        index = {}
        for i, c in enumerate(side):
            if c[0] < d:
                index[i] = len(classes)
                classes.append(c)
        below.append(index)
    top = len(classes)
    classes.append((d, False))
    table = {}
    for (_, side_table, orient), index in zip(sides, below):
        for (a, b), vec in side_table.items():
            # a product with the top is above it, so a and b are below it
            table[(index[a], index[b])] = {
                index[c] if c in index else top: v if c in index else orient * v
                for c, v in vec.items()
            }
    return classes, table


def _named(ids, table) -> dict:
    """A positional product table with each position named by ``ids``."""
    return {
        (ids[a], ids[b]): {ids[c]: v for c, v in vec.items()} for (a, b), vec in table.items()
    }


def cps_cohomology(e: ManifoldExpr) -> PresentedGradedRing:
    """Cohomology ring of a sphere/product/connected-sum expression.

    One checked ring, its classes listed by :func:`_core_table` and named
    e1, e2, ... by position.
    """
    validate_expr(e)
    classes, table = _core_table(e)
    ids = [f"e{i}" for i in range(1, len(classes) + 1)]
    basis = [BasisElement(ident, k) for ident, (k, _) in zip(ids, classes)]
    return PresentedGradedRing(Z, dimension(e), basis, _named(ids, table))


def gcps_cohomology(summands) -> PresentedGradedRing:
    """Cohomology ring of a wedge of expression manifolds, built in one pass.

    Positive degrees are the direct sum of the summands' positive parts;
    products across different wedge summands vanish.  The empty wedge is
    the one-point space: the unit-only ring.  Each summand, a sphere too,
    is listed by :func:`_core_table` and its table copied into one checked
    ring.  Each class is named as it is listed, with the ids of
    ``descriptor.BaseSpec.classes``: the j-th class a sphere factor gives
    is nu<j>, the class at wedge position i is otherwise e<i>.  Each
    summand is validated here, as ``summands`` may be raw expressions; it
    is the one check below a built descriptor.
    """
    basis: list[BasisElement] = []
    products = {}
    spheres = top = 0
    for e in summands:
        validate_expr(e)
        top = max(top, dimension(e))
        classes, table = _core_table(e)
        ids = []
        for k, sphere in classes:
            if sphere:
                spheres += 1
                ids.append(f"nu{spheres}")
            else:
                ids.append(f"e{len(basis) + 1}")
            basis.append(BasisElement(ids[-1], k))
        products.update(_named(ids, table))
    return PresentedGradedRing(Z, top, basis, products)


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


def _pairing_matrices(A: PresentedGradedRing, p: int, q: int):
    """The map's and the form's nonzero ``{row: value}`` integer columns."""
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
    (H^q class, target class) pair and one column per H^p class.  A zero
    column changes no nonzero elementary divisor.

    Both matrices are eliminated over Z, once per table: the divisors are
    kept in the cache that every ring read off the table by
    :meth:`PresentedGradedRing.over` shares.  The matrices over A's ring are
    the integral ones reduced, so its ranks are
    :func:`~reeb_bubble.coefficients.rank_over` of the integral divisors:
    over Q their count, over Z/p those prime to p.  Only over Z are the
    divisors themselves an invariant and kept.
    """
    if p < 1 or q < 1 or p + q > A.top_degree:
        raise ValueError(f"degree pair ({p},{q}) out of range for top {A.top_degree}")
    divisors = A._pairing_divisors.get((p, q))
    if divisors is None:
        map_cols, form_cols = _pairing_matrices(A, p, q)
        divisors = A._pairing_divisors[(p, q)] = (
            integer_elementary_divisors(map_cols) if map_cols else (),
            integer_elementary_divisors(form_cols) if form_cols else (),
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
