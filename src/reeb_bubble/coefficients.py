"""Exact linear algebra over the supported coefficient rings.

Everything in this package bottoms out in one integer elimination,
:func:`sparse_column_reduction`, over every coefficient ring: homology and
field ranks read its elementary divisors (over Z/p, the divisors prime to
p), cohomology coordinates read its saturated kernel lattice and the dual
rows that give coordinates along it, and no routine builds unimodular
transforms of its own.  There is no elimination over a field.  It is not
needed because every space this package models is torsion-free, so field
cohomology is integral cohomology reduced into the field; a Z/p cup ring
on a complex with torsion, where that reduction misses the Tor classes,
is refused rather than computed another way.  Nothing here (or anywhere
else in the package) touches floating point.

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
    """Kernel splitting and elementary divisors of an integer matrix.

    Column operations drive the matrix to a form whose surviving nonzero
    columns have full column rank while the rest vanish.  The transform
    columns over the vanished slots are a saturated basis of the kernel
    lattice; the matching rows of the inverse transform read off the
    coordinate of a vector along each basis element (composing a kernel
    column with its dual row gives the identity, and dual rows kill the
    complement).  ``kernel_cols[i]`` pairs with ``kernel_dual_rows[i]``.
    ``divisors`` lists the ``rank`` nonzero elementary divisors in chain
    order, each dividing the next.
    """

    __slots__ = ("cols", "rank", "kernel_cols", "kernel_dual_rows", "divisors")

    def __init__(self, cols, rank, kernel_cols, kernel_dual_rows, divisors):
        self.cols = cols
        self.rank = rank
        self.kernel_cols = kernel_cols
        self.kernel_dual_rows = kernel_dual_rows
        self.divisors = divisors


def sparse_column_reduction(rows, cols: int) -> ColumnReduction:
    """Compute a :class:`ColumnReduction` of an integer matrix.

    ``rows`` holds the matrix row-major; each row may be a dense list or a
    sparse ``{col: value}`` dict.  The pivot row is the shortest live row,
    taken from a lazy min-heap of row lengths that is pushed again whenever
    a row's support changes (Markowitz-style ordering); in that row the
    pivot column has the smallest |value|, then the shortest column.  Rows
    are cleared by nearest-quotient division, so entries stay close to the
    gcd scale of the input instead of growing with Bezout coefficients.

    This is the package's only integer elimination: the elementary
    divisors are read off the retired pivots (see :func:`_pivot_divisors`),
    so homology, the cocycle solvers and the fundamental cycle all share
    one reduction per boundary matrix.
    """
    acol: list[dict[int, int]] = [dict() for _ in range(cols)]
    orig_cols: list[list[tuple[int, int]]] = [[] for _ in range(cols)]
    for i, row in enumerate(rows):
        items = row.items() if isinstance(row, dict) else enumerate(row)
        for j, v in items:
            if v:
                acol[j][i] = v
                orig_cols[j].append((i, v))
    vcol: list[dict[int, int]] = [{j: 1} for j in range(cols)]
    vinv: list[dict[int, int]] = [{j: 1} for j in range(cols)]
    rowsupp: dict[int, set[int]] = {}
    for j, col in enumerate(acol):
        for i in col:
            rowsupp.setdefault(i, set()).add(j)

    # (row length, row) candidates; an entry is stale once its row is
    # retired or its length has changed, and is skipped when popped
    heap = [(len(js), i) for i, js in rowsupp.items()]
    heapify(heap)

    def col_op(dst: int, src: int, q: int):
        # column dst -= q * column src, with the inverse row update
        d = acol[dst]
        for i, v in acol[src].items():
            nv = d.get(i, 0) - q * v
            if nv:
                if i not in d:
                    supp = rowsupp[i]
                    supp.add(dst)
                    heappush(heap, (len(supp), i))
                d[i] = nv
            elif i in d:
                del d[i]
                supp = rowsupp[i]
                supp.discard(dst)
                heappush(heap, (len(supp), i))
        vd = vcol[dst]
        for t, v in vcol[src].items():
            nv = vd.get(t, 0) - q * v
            if nv:
                vd[t] = nv
            elif t in vd:
                del vd[t]
        rs = vinv[src]
        for t, v in vinv[dst].items():
            nv = rs.get(t, 0) + q * v
            if nv:
                rs[t] = nv
            elif t in rs:
                del rs[t]

    def negate_col(j: int):
        acol[j] = {i: -v for i, v in acol[j].items()}
        vcol[j] = {t: -v for t, v in vcol[j].items()}
        vinv[j] = {t: -v for t, v in vinv[j].items()}

    active = set(range(cols))
    pivots: list[tuple[int, int]] = []  # (row, column) in retirement order
    while heap:
        length, pr = heappop(heap)
        supp = rowsupp.get(pr)
        if not length or supp is None or len(supp) != length:
            continue
        pc = min(supp, key=lambda j: (abs(acol[j][pr]), len(acol[j]), j))
        while True:
            if acol[pc][pr] < 0:
                negate_col(pc)
            a = acol[pc][pr]
            others = [j for j in rowsupp[pr] if j != pc]
            if not others:
                break
            next_pc, next_abs = None, None
            for j in others:
                q = (2 * acol[j][pr] + a) // (2 * a)
                if q:
                    col_op(j, pc, q)
                r = acol[j].get(pr, 0)
                if r and (next_abs is None or abs(r) < next_abs):
                    next_pc, next_abs = j, abs(r)
            if next_pc is None:
                break
            if next_abs < acol[pc][pr]:
                pc = next_pc
        del rowsupp[pr]
        for i in acol[pc]:
            supp = rowsupp.get(i)
            if supp is not None:
                supp.discard(pc)
                heappush(heap, (len(supp), i))
        active.discard(pc)
        pivots.append((pr, pc))

    kernel_idx = sorted(active)
    if any(acol[j] for j in kernel_idx):
        raise RuntimeError("active column left nonzero after reduction")
    kernel_cols = [vcol[j] for j in kernel_idx]
    kernel_dual_rows = [vinv[j] for j in kernel_idx]
    for v in kernel_cols:
        acc: dict[int, int] = {}
        for j, x in v.items():
            for i, a in orig_cols[j]:
                acc[i] = acc.get(i, 0) + x * a
        if any(acc.values()):
            raise RuntimeError("column reduction produced a non-kernel vector")
    return ColumnReduction(
        cols, len(pivots), kernel_cols, kernel_dual_rows, _pivot_divisors(acol, pivots)
    )


def integer_elementary_divisors(rows, cols: int) -> tuple[int, ...]:
    """Elementary divisors of an integer matrix (dense or dict rows)."""
    return sparse_column_reduction(rows, cols).divisors


def rank_over(ring: CoefficientRing, divisors: tuple[int, ...]) -> int:
    """Rank over ``ring`` of an integer matrix with these elementary divisors.

    The Smith form's unimodular transforms stay invertible modulo p, so over
    Z/p exactly the divisors prime to p survive; over Z and Q every nonzero
    divisor counts.
    """
    if ring.kind == "Zp":
        return sum(1 for d in divisors if d % ring.p)
    return len(divisors)


def field_reduce(ring: CoefficientRing, rows, cols: int) -> int:
    """Rank over Q or Z/p of a matrix given by ``{col: value}`` rows.

    Computed by the one integer elimination: over Q each row is first
    scaled by the lcm of its denominators (which leaves the rank alone),
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
        scaled = []
        for row in rows:
            scale = lcm(*(v.denominator for v in row.values()))
            scaled.append({j: int(v * scale) for j, v in row.items()})
        rows = scaled
    return rank_over(ring, sparse_column_reduction(rows, cols).divisors)


# ---------------------------------------------------------------------------
# Elementary divisors from the retired pivots
# ---------------------------------------------------------------------------


def _pivot_divisors(acol, pivots) -> tuple[int, ...]:
    """Elementary divisors of the retired columns of a column reduction.

    A retired column is never touched again, and row ``pr`` is zero in every
    column retired after ``pc``; so the pivot rows form a lower-triangular
    block with the positive pivots on its diagonal.  Walking the pivots in
    order, a unit pivot first clears its row in the non-unit columns kept so
    far (a column operation with the unit column, which is zero in every
    earlier pivot row: no diagonal changes and no split-off row is
    refilled) and then splits off as a divisor 1.  The kept columns'
    pivot block has determinant D, the product of their pivots, so their
    row lattice in Z^s contains D·Z^s and :func:`smith_normal_form` finishes
    modulo D.
    """
    ones = 0
    kept: list[dict[int, int]] = []  # non-unit columns, as cleared so far
    modulus = 1
    for pr, pc in pivots:
        col = acol[pc]
        a = col[pr]
        if a != 1:
            kept.append(dict(col))
            modulus *= a
            continue
        for k in kept:
            x = k.get(pr)
            if x:
                for i, v in col.items():
                    nv = k.get(i, 0) - x * v
                    if nv:
                        k[i] = nv
                    else:
                        del k[i]
        ones += 1
    if not kept:
        return (1,) * ones
    residue: dict[int, dict[int, int]] = {}
    for t, k in enumerate(kept):
        for i, v in k.items():
            v %= modulus
            if v:
                residue.setdefault(i, {})[t] = v
    return (1,) * ones + smith_normal_form(list(residue.values()), len(kept), modulus)


def smith_normal_form(rows, cols: int, modulus: int) -> tuple[int, ...]:
    """Elementary divisors of the lattice ``span(rows) + modulus·Z^cols``.

    The residue step of :func:`_pivot_divisors`.  Transform-free: a reduced
    row Hermite basis and the reduced Hermite basis of its transpose are
    taken in turn, all modulo ``modulus``, until the basis is diagonal
    (Kannan & Bachem 1979, with the modular arithmetic of Hafner &
    McCurley 1991); gcd/lcm swaps then restore the divisibility chain.
    Every entry stays below ``modulus``.  Returns ``cols`` divisors in
    chain order, each dividing ``modulus``; rows may be dense lists or
    ``{col: value}`` dicts.
    """
    basis = _hermite_mod(rows, cols, modulus)
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
        items = row.items() if isinstance(row, dict) else enumerate(row)
        r = {j: v % modulus for j, v in items if v % modulus}
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


