"""Exact linear algebra over the supported coefficient rings.

Everything in this package bottoms out in one integer elimination,
:func:`sparse_column_reduction`, over every coefficient ring: integral
homology reads its elementary divisors once per chain complex (homology
over Q and Z/p follows by universal coefficients), the pairing matrices
of every ring's integer table are eliminated once over Z and every field
reads its rank off those divisors with :func:`rank_over` (over Z/p, the
divisors prime to p), cohomology
coordinates read its saturated kernel lattice, the dual
rows that give coordinates along it and its retired columns, and no
routine builds unimodular transforms of its own.

The reduction works column by column on each column's lowest nonzero row,
subtracting exact multiples of earlier columns with pivot ±1, as
persistent homology does.  A column whose lowest entry is not ±1 waits on
that row; after the pass the waiting rows are cut from the last row up,
by Euclid steps among the columns waiting there where no unit column took
the row.  Every boundary of the tier-2 models of the catalog and of the
generators' pools reduces without a Euclid step; the pairing matrices of
formula rings take a few.  The reduction splits its retired columns once,
listed by descending pivot row, which makes them triangular, and every
reader takes the split from the returned :class:`ColumnReduction`: the
``units`` (pivot 1) and the
``residue`` (the other retired columns, cleared on every unit pivot row).
The divisors are one 1 per unit followed by the residue's, which
:func:`smith_normal_form` finishes modulo D, the product of the residue's
pivots.  The residue is small: empty on every tier-2 model boundary of
the benchmark's ``tier2-small`` and ``catalog`` workloads, and over all
their calls (pairing matrices included) at most 1 column on
``tier2-small`` and at most 2 with D of at most 4 bits on ``catalog``.
Chain complexes reduce their boundaries from the top degree down and
leave out of each one the columns named by the next one's unit pivot rows
(see ``simplicial.ChainComplexZ``): the divisors are unchanged, and the
kernel shrinks to the part the boundaries above do not already span.  The
cocycle solvers read the units and residue of the boundary above, which
span its image.

There is no elimination over a field.  It is not needed because every
space this package models is torsion-free, so field cohomology is
integral cohomology reduced into the field; a Z/p cup ring on a complex
with torsion, where that reduction misses the Tor classes, is refused
rather than computed another way.  Nothing here (or anywhere else in the
package) touches floating point.

Every matrix is a list of sparse columns, one ``{row: value}`` dict per
column with no zero entries: the builders write a cell's boundary as its
column, and the elimination reads those dicts without a transpose.

The package's chain complexes, pairing matrices and ring tables hold plain
``int`` entries over every ring.  :meth:`CoefficientRing.convert` reduces
an entry into a ring, to print it or for the tests' field references:
``int`` for Z and Z/p (canonical residues 0..p-1) and
``fractions.Fraction`` for Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm


def is_int(value) -> bool:
    """An exact integer: ``True`` and ``2.0`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


# Miller-Rabin with the first 13 primes as bases decides primality of every
# p below MODULUS_BOUND, the least strong pseudoprime to all of them
# (Sorenson and Webster, 2015); the first 12 leave 318665857834031151167461
# = 399165290221 * 798330580441 undecided
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MODULUS_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < MODULUS_BOUND."""
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x != 1 and all(pow(x, 2**r, p) != p - 1 for r in range(s)):
            return False
    return True


class RingMismatchError(ValueError):
    """An operation received data over the wrong coefficient ring."""


@dataclass(frozen=True)
class CoefficientRing:
    """One of the rings Z, Q, Z/p (p prime and below :data:`MODULUS_BOUND`)."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Zp"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if (self.kind == "Zp") != (self.p is not None):
            raise ValueError("a modulus is required exactly for Zp")
        p = self.p
        if p is not None and not (is_int(p) and p < MODULUS_BOUND):
            raise ValueError(f"modulus {p!r} is not an integer below the bound {MODULUS_BOUND}")
        if p is not None and not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")

    @staticmethod
    def integers() -> "CoefficientRing":
        return CoefficientRing("Z")

    @staticmethod
    def rationals() -> "CoefficientRing":
        return CoefficientRing("Q")

    @staticmethod
    def prime_field(p: int) -> "CoefficientRing":
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
        """Reduce an integer (or exact rational, over Q) to a canonical scalar.

        Anything else, ``True`` and ``2.5`` included, raises ``TypeError``.
        """
        if isinstance(x, Fraction):
            if self.kind == "Q":
                return x
            if x.denominator != 1:
                raise RingMismatchError(f"{x} is not an integer")
            x = x.numerator
        elif not is_int(x):
            raise TypeError(f"not an integer or a fraction: {x!r}")
        if self.kind == "Q":
            return Fraction(x)
        return x % self.p if self.kind == "Zp" else x


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

    The retired (surviving) columns span the column lattice, each pivot is
    positive and the lowest nonzero entry of its column, and they are
    listed by descending pivot row, so each pivot row is zero in every
    column listed after it.  They come split once, here, for every reader.  ``units`` maps the pivot row of
    each retired column with pivot 1 to that column, in that order.
    ``residue`` lists ``(pivot row, column)`` for the other retired columns,
    in that order, each cleared on every unit pivot row by column
    operations with the unit columns (so the pivots stay as they were); the
    triangular order holds for the units followed by the residue.
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
    dict with no zero entries; it is not modified, since a column is copied
    before the reduction first changes it.  The columns whose indices are
    in ``cleared`` are neither copied nor read, and they join neither the
    retired columns nor the kernel (see
    :meth:`ChainComplexZ.reduction <reeb_bubble.simplicial.ChainComplexZ.reduction>`).

    The columns are reduced left to right by their lowest (largest-index)
    nonzero row, the pivot rule of persistent homology (Chen & Kerber,
    "Persistent homology computation with a twist", 2011; Bauer, "Ripser",
    2021): while that row belongs to an earlier column with pivot ±1, the
    exact multiple of that column is subtracted.  A column that empties
    joins the kernel, one whose lowest entry is ±1 on a free row retires
    there, and one whose lowest entry is not ±1 waits on that row.  Then
    the waiting rows are cut from the last row up (see :func:`_cut_rows`)
    and the cut columns go back through the same rule, which only moves
    them to lower rows; so no retired column is touched again, and every
    owner a column meets has pivot ±1.  Every boundary of the tier-2 models
    of the catalog and of the generators' pools reduces without a cut.

    Outside a cut only retired columns are subtracted, which changes the
    inverse transform only in their rows, and no reader takes those: the
    dual row of kernel column j is e_j unless j lost a cut's pivot.  A
    transform is kept only for a column that a step changed or that waited
    (an untouched column's is e_j).  The kernel is listed in the order its
    columns empty, which is column order when nothing waited.

    This is the package's only integer elimination: the retired columns
    are split into units and residue once (see :class:`ColumnReduction`),
    and the elementary divisors are read off that split, so homology, the
    cocycle solvers and the fundamental cycle all share one reduction per
    boundary matrix.
    """
    retired: dict[int, tuple[int, dict[int, int]]] = {}  # pivot row -> (index, column)
    transforms: dict[int, dict[int, int]] = {}
    kernel_cols: list[dict[int, int]] = []
    kernel_dual_rows: list[dict[int, int]] = []
    waiting = heap = None  # row -> [(index, column, transform)]; the rows, negated
    todo = enumerate(columns)
    while todo is not None:
        for j, col in todo:
            if j in cleared:
                continue
            if not col:
                kernel_cols.append({j: 1})
                kernel_dual_rows.append({j: 1})
                continue
            r = max(col)
            x = col[r]
            owner = retired.get(r)
            if owner is None and (x == 1 or x == -1):
                retired[r] = (j, col)
                continue
            col = dict(col)
            vec = transforms.get(j) or {j: 1}
            while owner is not None:
                i, pivot_col = owner
                # column j -= q * column i, and the same on the transform;
                # the owner's pivot is ±1, so q = x / pivot = x * pivot
                q = x * pivot_col[r]
                for t, v in pivot_col.items():
                    nv = col.get(t, 0) - q * v
                    if nv:
                        col[t] = nv
                    else:
                        del col[t]
                for t, v in (transforms.get(i) or {i: 1}).items():
                    nv = vec.get(t, 0) - q * v
                    if nv:
                        vec[t] = nv
                    else:
                        del vec[t]
                if not col:
                    break
                r = max(col)
                x = col[r]
                owner = retired.get(r)
            if not col:
                kernel_cols.append(vec)
                kernel_dual_rows.append({j: 1})
                continue
            transforms[j] = vec
            if x == 1 or x == -1:
                retired[r] = (j, col)
            elif waiting is None:
                waiting, heap = {r: [(j, col, vec)]}, [-r]
            elif r in waiting:
                waiting[r].append((j, col, vec))
            else:
                waiting[r] = [(j, col, vec)]
                heappush(heap, -r)
        todo = None
        if waiting:
            todo = _cut_rows(heap, waiting, retired, kernel_cols, kernel_dual_rows)
    # the input columns must sum to zero along every kernel vector
    for vec in kernel_cols:
        acc: dict[int, int] = {}
        for j, x in vec.items():
            for i, v in columns[j].items():
                acc[i] = acc.get(i, 0) + x * v
        if any(acc.values()):
            raise RuntimeError("column reduction produced a non-kernel vector")
    # listed by pivot row, descending, each made positive on it; a column
    # has no entry past its pivot row, so every pivot row is zero in the
    # columns listed after it.  A listed unit that no step changed is the
    # input's own dict; a cut pivot is a copy.
    units: dict[int, dict[int, int]] = {}
    residue: list[tuple[int, dict[int, int]]] = []
    for r in sorted(retired, reverse=True):
        col = retired[r][1]
        if col[r] < 0:
            col = {t: -v for t, v in col.items()}
        if col[r] == 1:
            units[r] = col
        else:
            residue.append((r, col))
    divisors = (1,) * len(units)
    if residue:
        # the residue's pivot block has determinant D, the product of its
        # pivots, so its elementary divisors divide D
        _clear_unit_pivots(units, residue)
        modulus = 1
        for pr, col in residue:
            modulus *= col[pr]
        divisors += smith_normal_form([col for _, col in residue], modulus)
    return ColumnReduction(
        len(units) + len(residue), kernel_cols, kernel_dual_rows, divisors, units, residue
    )


def _cut_rows(heap, waiting, retired, kernel_cols, kernel_dual_rows):
    """Cut the waiting rows, last row first; yield each cut column left nonzero.

    ``waiting`` maps a row to the ``(index, column, transform)`` of each
    column waiting there, and ``heap`` holds those rows, negated; the
    caller adds a row whenever a yielded column comes to wait on it.  Where
    a unit column took the row in the meantime, the columns are yielded as
    they are, each to take its exact multiple; otherwise the last pivot of
    :func:`_euclid` retires on the row.  A column that empties gets the
    dual row e_j, here or in the caller; once every row is cut, the rows
    that :func:`_euclid` changed replace those.
    """
    duals: dict[int, dict[int, int]] = {}  # index -> inverse row, where a cut changed it
    start = len(kernel_dual_rows)
    while heap:
        r = -heappop(heap)
        group = waiting.pop(r)
        if r not in retired:
            j, col, _ = group.pop() if len(group) == 1 else _euclid(r, group, duals)
            retired[r] = (j, col)
        for j, col, vec in group:
            if col:
                yield j, col
            else:
                kernel_cols.append(vec)
                kernel_dual_rows.append({j: 1})
    for t in range(start, len(kernel_dual_rows)):
        (j,) = kernel_dual_rows[t]  # the row is still e_j
        if j in duals:
            kernel_dual_rows[t] = duals[j]


def _euclid(r, group, duals):
    """Clear row r in all but one ``(index, column, transform)`` of ``group``;
    remove that one from ``group`` and return it.

    The pivot is the column with the least |entry| on r, the shortest
    column breaking ties.  Every other column takes the nearest-quotient
    multiple, which leaves at most half the pivot, so entries stay near the
    gcd scale instead of growing with Bezout coefficients; the least
    remainder takes the pivot over.  Column i -= q * column p changes the
    inverse transform only in row p, by q * (row i).  That row matters once
    p loses the pivot, and may reach the kernel: then the quotients of p's
    turn are folded into ``duals``.
    """
    p = min(group, key=lambda e: (abs(e[1][r]), len(e[1])))
    while True:
        j, pivot_col, pivot_vec = p
        a = pivot_col[r]
        given = []
        best = None
        for e in group:
            x = e[1].get(r)
            if e is p or not x:
                continue
            q = (2 * x + a) // (2 * a)  # the integer nearest x / a
            _add_multiple(e[1], -q, pivot_col)
            _add_multiple(e[2], -q, pivot_vec)
            given.append((e[0], q))
            x = e[1].get(r)
            if x and (best is None or (abs(x), len(e[1])) < best):
                best, nxt = (abs(x), len(e[1])), e
        if best is None:
            group.remove(p)
            return p
        row = duals.setdefault(j, {j: 1})
        for i, q in given:
            _add_multiple(row, q, duals.get(i) or {i: 1})
        p = nxt


def _add_multiple(target, q, source) -> None:
    """target += q * source, in place, on ``{index: value}`` dicts."""
    for t, v in source.items():
        nv = target.get(t, 0) + q * v
        if nv:
            target[t] = nv
        else:
            del target[t]


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

    No code of the package calls it: every ring's pairings are read off
    integral divisors (see :func:`~reeb_bubble.graded.pairing_invariants`).
    It is the tests' rank reference for a matrix already reduced into a
    field, and a name the benchmark's tracer wraps: ``LAYERS`` in
    ``perfbench/tracer.py`` looks it up in this module, also for
    ``--trace``, so it must stay bound here or the tracer fails with
    ``AttributeError``.

    Computed by the one integer elimination: over Q each row is first
    scaled by the lcm of its denominators (which leaves the rank alone and
    the entries no larger than that row needs),
    over Z/p the residues are read as integers, and :func:`rank_over`
    counts the elementary divisors that the field sees.  Over Z the rank
    forgets the divisors that are the invariant there, so Z raises
    :class:`RingMismatchError`.
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
    :func:`sparse_column_reduction`, listed by descending pivot row, so
    each pivot row is zero in the columns listed after it.  Walking the
    units in that order, each clears its row in the residue columns by a
    column operation with the unit column, which is zero on every pivot row
    listed before it: no pivot changes and no cleared row is refilled.
    """
    for pr, col in units.items():
        for _, k in residue:
            x = k.get(pr)
            if x:
                _add_multiple(k, -x, col)


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


