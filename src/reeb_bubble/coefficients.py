"""Exact linear algebra over the supported coefficient rings.

Everything in this package bottoms out in one integer elimination,
:func:`sparse_column_reduction`, over every coefficient ring: homology and
field ranks read its elementary divisors (over Z/p, the divisors prime to
p), cohomology coordinates read its saturated kernel lattice, the dual
rows that give coordinates along it and its retired columns, and no
routine builds unimodular transforms of its own.

The reduction splits its retired columns once, and every reader takes the
split from the returned :class:`ColumnReduction`: the ``units`` (pivot 1)
and the ``residue`` (the other retired columns, cleared on every unit
pivot row).  The divisors are one 1 per unit followed by the residue's,
which :func:`smith_normal_form` finishes modulo D, the product of the
residue's pivots.  The residue is small: at most 1 column on the
benchmark's ``tier2-small`` models, at most 2 with D of at most 4 bits on
``catalog``.  Chain complexes reduce their boundaries from the top degree
down and leave out of each one the columns named by the next one's unit
pivot rows (see ``simplicial.ChainComplexZ``): the divisors are
unchanged, and the kernel shrinks to the part the boundaries above do not
already span.  The cocycle solvers read the units and residue of the
boundary above, which span its image.

There is no elimination over a field.  It is not needed because every
space this package models is torsion-free, so field cohomology is
integral cohomology reduced into the field; a Z/p cup ring on a complex
with torsion, where that reduction misses the Tor classes, is refused
rather than computed another way.  Nothing here (or anywhere else in the
package) touches floating point.

Every matrix is a list of sparse columns, one ``{row: value}`` dict per
column with no zero entries: the builders write a cell's boundary as its
column, and the elimination reads those dicts without a transpose.

Scalars are plain ``int`` for Z and Z/p (canonical residues 0..p-1) and
``fractions.Fraction`` for Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


class RingMismatchError(ValueError):
    """An operation received data over the wrong coefficient ring."""


@dataclass(frozen=True)
class CoefficientRing:
    """One of the rings Z, Q, Z/p (p prime)."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Zp"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if (self.kind == "Zp") != (self.p is not None):
            raise ValueError("a modulus is required exactly for Zp")

    @staticmethod
    def integers() -> "CoefficientRing":
        return CoefficientRing("Z")

    @staticmethod
    def rationals() -> "CoefficientRing":
        return CoefficientRing("Q")

    @staticmethod
    def prime_field(p: int) -> "CoefficientRing":
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"modulus {p} is not prime")
        return CoefficientRing("Zp", p)

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    @property
    def label(self) -> str:
        if self.kind == "Zp":
            return f"Z/{self.p}"
        return self.kind

    def convert(self, x):
        """Coerce an integer (or exact rational, over Q) to a canonical scalar."""
        if self.kind == "Q":
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise RingMismatchError(f"{x} is not an integer")
            x = x.numerator
        x = int(x)
        return x % self.p if self.kind == "Zp" else x

    def zero(self):
        return self.convert(0)

    def one(self):
        return self.convert(1)


class ColumnReduction:
    """Kernel splitting, elementary divisors and split pivots of an integer matrix.

    The matrix comes as sparse ``{row: value}`` columns, the one matrix
    layout of the package.  Column operations drive it to a form whose
    surviving nonzero columns have full column rank while the rest vanish.
    The transform columns over the vanished slots are a saturated basis of
    the kernel lattice; the matching rows of the inverse transform read off
    the coordinate of a vector along each basis element (composing a kernel
    column with its dual row gives the identity, and dual rows kill the
    complement).  ``kernel_cols[i]`` pairs with ``kernel_dual_rows[i]``.
    ``divisors`` lists the ``rank`` nonzero elementary divisors in chain
    order, each dividing the next.

    The retired (surviving) columns span the column lattice and are
    triangular on their pivot rows: a pivot row is zero in every column
    retired after it, and each pivot is positive.  They come split once,
    here, for every reader.  ``units`` maps the pivot row of each retired
    column with pivot 1 to that column, in retirement order.  ``residue``
    lists ``(pivot row, column)`` for the other retired columns, in
    retirement order, each cleared on every unit pivot row by column
    operations with the unit columns (so the pivots stay as they were).
    Units and residue together still span the column lattice; the divisors
    are one 1 per unit followed by the divisors of the residue.  Columns
    left out of the reduction (``cleared``) belong to neither the split nor
    the kernel.
    """

    __slots__ = ("rank", "kernel_cols", "kernel_dual_rows", "divisors", "units", "residue")

    def __init__(self, rank, kernel_cols, kernel_dual_rows, divisors, units, residue):
        self.rank = rank
        self.kernel_cols = kernel_cols
        self.kernel_dual_rows = kernel_dual_rows
        self.divisors = divisors
        self.units = units
        self.residue = residue


def sparse_column_reduction(columns, cleared=frozenset()) -> ColumnReduction:
    """Compute a :class:`ColumnReduction` of an integer matrix.

    ``columns`` holds the matrix column by column, each a ``{row: value}``
    dict with no zero entries; it is not modified, since each column the
    reduction works on is copied once.  The pivot row is the shortest live
    row, taken from a lazy min-heap of row lengths that gets one new entry
    per row whose support changed in a pivot step (Markowitz-style
    ordering); in that row the pivot column has the smallest |value|, then
    the shortest column.  Rows are cleared by nearest-quotient division, so
    entries stay close to the gcd scale of the input instead of growing
    with Bezout coefficients.

    The columns whose indices are in ``cleared`` are left out: they are
    neither copied nor read, and they join neither the retired columns nor
    the kernel (see
    :meth:`ChainComplexZ.reduction <reeb_bubble.simplicial.ChainComplexZ.reduction>`).

    This is the package's only integer elimination: the retired columns
    are split into units and residue once (see :class:`ColumnReduction`),
    and the elementary divisors are read off that split, so homology, the
    cocycle solvers and the fundamental cycle all share one reduction per
    boundary matrix.
    """
    cols = len(columns)
    acol: list[dict[int, int]] = [
        {} if j in cleared else dict(col) for j, col in enumerate(columns)
    ]
    # a row's support is filled in column order, which fixes the order in
    # which its columns are visited and so the pivot sequence
    rowsupp: dict[int, set[int]] = {}
    for j, col in enumerate(acol):
        for i in col:
            supp = rowsupp.get(i)
            if supp is None:
                rowsupp[i] = {j}
            else:
                supp.add(j)
    vcol: list[dict[int, int]] = [{j: 1} for j in range(cols)]
    vinv: list[dict[int, int]] = [{j: 1} for j in range(cols)]

    # (row length, row) candidates; an entry is stale once its row is
    # retired or its length has changed, and is skipped when popped
    heap = [(len(js), i) for i, js in rowsupp.items()]
    heapify(heap)
    touched: set[int] = set()  # rows whose support changed in this step

    active = set(range(cols))
    active.difference_update(cleared)
    # retired columns by pivot row, split on the pivot, in retirement order
    units: dict[int, dict[int, int]] = {}
    residue: list[tuple[int, dict[int, int]]] = []
    while heap:
        length, pr = heappop(heap)
        supp = rowsupp.get(pr)
        if supp is None or len(supp) != length:
            continue
        if length == 1:
            (pc,) = supp
        else:
            pc = min(supp, key=lambda j: (abs(acol[j][pr]), len(acol[j]), j))
        while True:
            col = acol[pc]
            if col[pr] < 0:
                col = acol[pc] = {i: -v for i, v in col.items()}
                vcol[pc] = {t: -v for t, v in vcol[pc].items()}
                vinv[pc] = {t: -v for t, v in vinv[pc].items()}
            a = col[pr]
            if len(supp) == 1:
                break
            next_pc, next_abs = None, None
            for j in list(supp):
                if j == pc:
                    continue
                d = acol[j]
                q = (2 * d[pr] + a) // (2 * a)
                if q:
                    # column j -= q * column pc, with the inverse row update
                    for i, v in col.items():
                        nv = d.get(i, 0) - q * v
                        if nv:
                            if i not in d:
                                rowsupp[i].add(j)
                                touched.add(i)
                            d[i] = nv
                        elif i in d:
                            del d[i]
                            rowsupp[i].discard(j)
                            touched.add(i)
                    vd = vcol[j]
                    for t, v in vcol[pc].items():
                        nv = vd.get(t, 0) - q * v
                        if nv:
                            vd[t] = nv
                        elif t in vd:
                            del vd[t]
                    rs = vinv[pc]
                    for t, v in vinv[j].items():
                        nv = rs.get(t, 0) + q * v
                        if nv:
                            rs[t] = nv
                        elif t in rs:
                            del rs[t]
                r = d.get(pr, 0)
                if r and (next_abs is None or abs(r) < next_abs):
                    next_pc, next_abs = j, abs(r)
            if next_pc is None:
                break
            if next_abs < a:
                pc = next_pc
        del rowsupp[pr]
        for i in col:
            supp = rowsupp.get(i)
            if supp is not None:
                supp.discard(pc)
                touched.add(i)
        for i in touched:
            supp = rowsupp.get(i)
            if supp:
                heappush(heap, (len(supp), i))
        touched.clear()
        active.discard(pc)
        if a == 1:
            units[pr] = col
        else:
            residue.append((pr, col))

    kernel_idx = sorted(active)
    if any(acol[j] for j in kernel_idx):
        raise RuntimeError("active column left nonzero after reduction")
    kernel_cols = [vcol[j] for j in kernel_idx]
    # the input columns must sum to zero along every kernel vector
    for vec in kernel_cols:
        acc: dict[int, int] = {}
        for j, x in vec.items():
            for i, v in columns[j].items():
                acc[i] = acc.get(i, 0) + x * v
        if any(acc.values()):
            raise RuntimeError("column reduction produced a non-kernel vector")
    divisors = (1,) * len(units)
    if residue:
        # the residue's pivot block has determinant D, the product of its
        # pivots, so its elementary divisors divide D
        _clear_unit_pivots(units, residue)
        modulus = 1
        for pr, col in residue:
            modulus *= col[pr]
        divisors += smith_normal_form([col for _, col in residue], modulus)
    kernel_dual_rows = [vinv[j] for j in kernel_idx]
    return ColumnReduction(
        len(units) + len(residue), kernel_cols, kernel_dual_rows, divisors, units, residue
    )


def integer_elementary_divisors(columns) -> tuple[int, ...]:
    """Elementary divisors of an integer matrix given by ``{row: value}`` columns."""
    return sparse_column_reduction(columns).divisors


def rank_over(ring: CoefficientRing, divisors: tuple[int, ...]) -> int:
    """Rank over ``ring`` of an integer matrix with these elementary divisors.

    The Smith form's unimodular transforms stay invertible modulo p, so over
    Z/p exactly the divisors prime to p survive; over Z and Q every nonzero
    divisor counts.
    """
    if ring.kind == "Zp":
        return sum(1 for d in divisors if d % ring.p)
    return len(divisors)


def field_reduce(ring: CoefficientRing, columns) -> int:
    """Rank over Q or Z/p of a matrix given by ``{row: value}`` columns.

    Computed by the one integer elimination: over Q each row is first
    scaled by the lcm of its denominators (which leaves the rank alone and
    the entries no larger than that row needs),
    over Z/p the residues are read as integers, and :func:`rank_over`
    counts the elementary divisors that the field sees.  Over Z the rank
    forgets the divisors that are the invariant there, so Z raises
    :class:`RingMismatchError`.

    The benchmark's tracer (``LAYERS`` in ``perfbench/tracer.py``) looks
    this name up in this module to wrap it, also for ``--trace``; the name
    must stay bound here or the tracer fails with ``AttributeError``.
    """
    if not ring.is_field:
        raise RingMismatchError("field_reduce needs Q or Z/p; got Z")
    if ring.kind == "Q":
        scale: dict[int, int] = {}
        for col in columns:
            for i, v in col.items():
                scale[i] = lcm(scale.get(i, 1), v.denominator)
        columns = [
            {i: v.numerator * (scale[i] // v.denominator) for i, v in col.items()}
            for col in columns
        ]
    return rank_over(ring, sparse_column_reduction(columns).divisors)


# ---------------------------------------------------------------------------
# Elementary divisors from the retired pivots
# ---------------------------------------------------------------------------


def _clear_unit_pivots(units, residue) -> None:
    """Clear every unit pivot row in the residue columns, in place.

    ``units`` and ``residue`` are the split retired columns of
    :func:`sparse_column_reduction`.  A retired column is never touched
    again, and its pivot row is zero in every column retired after it; so
    the pivot rows form a lower-triangular block with the positive pivots
    on its diagonal.  Walking the units in retirement order, each clears
    its row in the residue columns retired before it (a column operation
    with the unit column, which is zero in every earlier pivot row: no
    diagonal changes and no cleared row is refilled); residue columns
    retired after it are zero on its row already.
    """
    for pr, col in units.items():
        for _, k in residue:
            x = k.get(pr)
            if x:
                for i, v in col.items():
                    nv = k.get(i, 0) - x * v
                    if nv:
                        k[i] = nv
                    else:
                        del k[i]


def smith_normal_form(columns, modulus: int) -> tuple[int, ...]:
    """Elementary divisors modulo ``modulus`` of a matrix of ``{row: value}`` columns.

    The residue step of :func:`sparse_column_reduction`: one divisor per
    column, gcd(d_i, modulus) for the i-th elementary divisor d_i (0 past the
    rank), which are the elementary divisors of the lattice spanned by the
    matrix's rows and ``modulus·Z^len(columns)``.  Transform-free: a
    reduced row Hermite basis of that lattice and the reduced Hermite basis
    of its transpose are taken in turn, all modulo ``modulus``, until the
    basis is diagonal (Kannan & Bachem 1979, with the modular arithmetic of
    Hafner & McCurley 1991); gcd/lcm swaps then restore the divisibility
    chain.  Every entry stays below ``modulus``.  Returns the divisors in
    chain order, each dividing ``modulus``.
    """
    cols = len(columns)
    rows: dict[int, dict[int, int]] = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    basis = _hermite_mod(rows.values(), cols, modulus)
    while any(len(h) > 1 for h in basis):
        transposed: list[dict[int, int]] = [{} for _ in range(cols)]
        for t, h in enumerate(basis):
            for j, v in h.items():
                transposed[j][t] = v
        basis = _hermite_mod(transposed, cols, modulus)
    diag = [h[t] for t, h in enumerate(basis)]
    for i in range(cols):
        for j in range(i + 1, cols):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return tuple(diag)


def _hermite_mod(rows, cols: int, modulus: int) -> list[dict[int, int]]:
    """Reduced row Hermite basis of ``span(rows) + modulus·Z^cols``.

    Row ``t`` of the result has its first entry, a divisor of ``modulus``,
    in column ``t``; every entry above a diagonal entry is reduced modulo
    it (without that reduction the alternation in
    :func:`smith_normal_form` can cycle, e.g. on ``[[1, 1], [0, 1]]``).
    Rows are queued by their leading column; row ``t`` starts as
    ``modulus·e_t`` and absorbs its queue by extended-gcd row operations,
    so entries right of the diagonal may be reduced modulo ``modulus``.
    """
    queues: list[list[dict[int, int]]] = [[] for _ in range(cols)]
    for row in rows:
        r = {j: v % modulus for j, v in row.items() if v % modulus}
        if r:
            queues[min(r)].append(r)
    basis: list[dict[int, int]] = []
    for t in range(cols):
        h = {t: modulus}
        for g in queues[t]:
            a, b = h[t], g[t]
            d, x, y = _xgcd(a, b)
            fa, fb = a // d, b // d
            new_h, new_g = {t: d}, {}
            for j in h.keys() | g.keys():
                if j == t:
                    continue
                u, w = h.get(j, 0), g.get(j, 0)
                nh, ng = (x * u + y * w) % modulus, (fa * w - fb * u) % modulus
                if nh:
                    new_h[j] = nh
                if ng:
                    new_g[j] = ng
            h = new_h
            if new_g:
                queues[min(new_g)].append(new_g)
        d = h[t]
        for u in basis:
            q = u.get(t, 0) // d
            if q:
                for j, v in h.items():
                    nv = (u.get(j, 0) - q * v) % modulus
                    if nv:
                        u[j] = nv
                    else:
                        u.pop(j, None)
        basis.append(h)
    return basis


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b == g == gcd(a, b) > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


