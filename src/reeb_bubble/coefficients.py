"""Exact linear algebra over the supported coefficient rings.

Everything in this package bottoms out in integer matrix normal forms:
homology needs Smith decompositions, cohomology coordinates need saturated
kernel lattices, and field coefficients need exact row reduction.  This
module is the only place scalar arithmetic happens; nothing here (or
anywhere else in the package) touches floating point.

Scalars are plain ``int`` for Z and Z/p (canonical residues 0..p-1) and
``fractions.Fraction`` for Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd


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

    def invert(self, x):
        if self.kind == "Q":
            if x == 0:
                raise ZeroDivisionError("inverting 0")
            return 1 / Fraction(x)
        if self.kind == "Zp":
            x = x % self.p
            if x == 0:
                raise ZeroDivisionError("inverting 0")
            return pow(x, self.p - 2, self.p)
        raise RingMismatchError("Z is not a field; no general inverses")


class ExactMatrix:
    """Immutable dense matrix with exact entries over a fixed ring.

    Row and column counts are explicit so zero-dimensional edge cases
    (empty chain groups) stay unambiguous.
    """

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring: CoefficientRing, data, cols: int | None = None):
        data = tuple(tuple(ring.convert(x) for x in row) for row in data)
        widths = {len(row) for row in data}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        if cols is None:
            if not data:
                raise ValueError("column count required for empty matrices")
            cols = len(data[0])
        if data and len(data[0]) != cols:
            raise ValueError("row width disagrees with declared column count")
        self.ring = ring
        self.rows = len(data)
        self.cols = cols
        self.data = data

    @staticmethod
    def identity(ring: CoefficientRing, n: int) -> "ExactMatrix":
        one, zero = ring.one(), ring.zero()
        return ExactMatrix(
            ring, [[one if i == j else zero for j in range(n)] for i in range(n)], n
        )

    @staticmethod
    def zero(ring: CoefficientRing, rows: int, cols: int) -> "ExactMatrix":
        z = ring.zero()
        return ExactMatrix(ring, [[z] * cols for _ in range(rows)], cols)

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def to_rows(self) -> list[list]:
        return [list(row) for row in self.data]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.ring,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.rows,
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ring != other.ring:
            raise RingMismatchError("mixed rings in matrix product")
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = other.transpose().data
        out = [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.data]
        return ExactMatrix(self.ring, out, other.cols)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.data))

    def __repr__(self):
        return f"ExactMatrix({self.ring.label}, {self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D diagonal.

    ``divisors`` lists the nonzero diagonal entries; consecutive entries
    divide each other.
    """

    U: ExactMatrix
    D: ExactMatrix
    V: ExactMatrix
    divisors: tuple[int, ...]


def smith_normal_form(A: ExactMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms, over Z only.

    Pivots are chosen with minimal absolute value; elimination runs the
    classical gcd descent, with the usual row-absorption step to restore
    the divisibility chain.  Dense and quadratic-ish: meant for the modest
    matrices this package produces, not for bulk sparse work (see
    :func:`integer_elementary_divisors` for that).
    """
    if A.ring.kind != "Z":
        raise RingMismatchError("Smith normal form is defined here over Z only")
    m, n = A.rows, A.cols
    M = A.to_rows()
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(a, b):
        M[a], M[b] = M[b], M[a]
        U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        for row in M:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]

    def add_row(dst, src, q):
        # row dst -= q * row src
        Md, Ms = M[dst], M[src]
        for j in range(n):
            Md[j] -= q * Ms[j]
        Ud, Us = U[dst], U[src]
        for j in range(m):
            Ud[j] -= q * Us[j]

    def add_col(dst, src, q):
        for row in M:
            row[dst] -= q * row[src]
        for row in V:
            row[dst] -= q * row[src]

    def find_pivot(t):
        best = None
        where = None
        for i in range(t, m):
            row = M[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    where = (i, j)
                    if best == 1:
                        return where
        return where

    t = 0
    while t < min(m, n):
        where = find_pivot(t)
        if where is None:
            break
        swap_rows(t, where[0])
        swap_cols(t, where[1])
        # gcd descent: clear row and column t, restarting whenever a
        # remainder strictly smaller than the pivot shows up.
        while True:
            restart = False
            for i in range(t + 1, m):
                if M[i][t]:
                    q = M[i][t] // M[t][t]
                    add_row(i, t, q)
                    if M[i][t]:
                        swap_rows(i, t)
                        restart = True
            if restart:
                continue
            for j in range(t + 1, n):
                if M[t][j]:
                    q = M[t][j] // M[t][t]
                    add_col(j, t, q)
                    if M[t][j]:
                        swap_cols(j, t)
                        restart = True
            if restart:
                continue
            break
        # restore the divisibility chain if a lower-right entry escapes it
        d = M[t][t]
        culprit = None
        for i in range(t + 1, m):
            row = M[i]
            for j in range(t + 1, n):
                if row[j] % d:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            add_row(t, culprit, -1)  # row t += row culprit
            continue
        t += 1

    for i in range(min(m, n)):
        if M[i][i] < 0:
            for j in range(n):
                M[i][j] = -M[i][j]
            for j in range(m):
                U[i][j] = -U[i][j]

    divisors = tuple(M[i][i] for i in range(min(m, n)) if M[i][i])
    for a, b in zip(divisors, divisors[1:]):
        if b % a:
            raise RuntimeError("divisibility chain violated")
    Z = CoefficientRing.integers()
    return SmithDecomposition(
        ExactMatrix(Z, U, m), ExactMatrix(Z, M, n), ExactMatrix(Z, V, n), divisors
    )


def integer_elementary_divisors(rows, cols: int | None = None) -> tuple[int, ...]:
    """Elementary divisors of an integer matrix, without transforms.

    Fast path for the big sparse boundary matrices: a unit-pivot sweep on
    a dict-of-dicts representation first (each such pivot contributes a
    divisor 1, which cannot disturb the chain), then the dense routine on
    whatever small residue is left.  Each row of ``rows`` may be a dense
    list or a sparse ``{col: value}`` dict; the input is not modified.
    """
    sparse: dict[int, dict[int, int]] = {}
    col_index: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        items = row.items() if isinstance(row, dict) else enumerate(row)
        entries = {j: v for j, v in items if v}
        if entries:
            sparse[i] = entries
            for j in entries:
                col_index.setdefault(j, set()).add(i)

    ones = 0
    while True:
        unit = None
        for i, row in sparse.items():
            for j, v in row.items():
                if v in (1, -1):
                    unit = (i, j, v)
                    break
            if unit:
                break
        if unit is None:
            break
        i, j, v = unit
        pivot_row = sparse.pop(i)
        for jj in pivot_row:
            col_index[jj].discard(i)
        for r in list(col_index.get(j, ())):
            factor = sparse[r][j] * v  # pivot is +-1; this clears column j
            target = sparse[r]
            for jj, pv in pivot_row.items():
                val = target.get(jj, 0) - factor * pv
                if val:
                    target[jj] = val
                    col_index.setdefault(jj, set()).add(r)
                else:
                    if jj in target:
                        del target[jj]
                        col_index[jj].discard(r)
            if not target:
                del sparse[r]
        col_index.pop(j, None)
        ones += 1

    if not sparse:
        return (1,) * ones
    live_rows = sorted(sparse)
    live_cols = sorted({j for row in sparse.values() for j in row})
    pos = {j: k for k, j in enumerate(live_cols)}
    dense = [[0] * len(live_cols) for _ in live_rows]
    for k, i in enumerate(live_rows):
        for j, v in sparse[i].items():
            dense[k][pos[j]] = v
    Z = CoefficientRing.integers()
    rest = smith_normal_form(ExactMatrix(Z, dense, len(live_cols))).divisors
    return (1,) * ones + rest


class ColumnReduction:
    """Kernel splitting of an integer matrix by unimodular column operations.

    Column operations drive the matrix to a form whose surviving nonzero
    columns have full column rank while the rest vanish.  The transform
    columns over the vanished slots are a saturated basis of the kernel
    lattice; the matching rows of the inverse transform read off the
    coordinate of a vector along each basis element (composing a kernel
    column with its dual row gives the identity, and dual rows kill the
    complement).  ``kernel_cols[i]`` pairs with ``kernel_dual_rows[i]``.
    """

    __slots__ = ("cols", "rank", "kernel_cols", "kernel_dual_rows")

    def __init__(self, cols, rank, kernel_cols, kernel_dual_rows):
        self.cols = cols
        self.rank = rank
        self.kernel_cols = kernel_cols
        self.kernel_dual_rows = kernel_dual_rows


def sparse_column_reduction(rows, cols: int) -> ColumnReduction:
    """Compute a :class:`ColumnReduction` of an integer matrix.

    ``rows`` holds the matrix row-major; each row may be a dense list or a
    sparse ``{col: value}`` dict.  The pivot row is the shortest live row,
    taken from a lazy min-heap of row lengths that is pushed again whenever
    a row's support changes (Markowitz-style ordering); in that row the
    pivot column has the smallest |value|, then the shortest column.  Rows
    are cleared by nearest-quotient division, so entries stay close to the
    gcd scale of the input instead of growing with Bezout coefficients.
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
    rank = 0
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
        rank += 1

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
    return ColumnReduction(cols, rank, kernel_cols, kernel_dual_rows)


def integer_kernel_basis(rows, cols: int) -> list[list[int]]:
    """Basis of the kernel lattice of an integer matrix (dense or dict rows).

    Dense view of the kernel columns of :func:`sparse_column_reduction`;
    the basis is automatically saturated because the transform there is
    unimodular.
    """
    basis = []
    for col in sparse_column_reduction(rows, cols).kernel_cols:
        vec = [0] * cols
        for j, v in col.items():
            vec[j] = v
        basis.append(vec)
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


def solve_in_span(columns: list[list[int]], target: list[int]) -> list[int] | None:
    """Integer coordinates of ``target`` in the lattice spanned by ``columns``.

    Returns None when the target is outside the lattice.
    """
    if not columns:
        return [] if not any(target) else None
    nrows = len(columns[0])
    ncols = len(columns)
    acol = [{i: v for i, v in enumerate(col) if v} for col in columns]
    wcol: list[dict[int, int]] = [{j: 1} for j in range(ncols)]

    def combine(c1, c2, a, b):
        g, x, y = _xgcd(a, b)
        p, q = -(b // g), a // g
        for store in (acol, wcol):
            col1, col2 = store[c1], store[c2]
            keys = set(col1) | set(col2)
            new1, new2 = {}, {}
            for k in keys:
                u, w = col1.get(k, 0), col2.get(k, 0)
                n1, n2 = x * u + y * w, p * u + q * w
                if n1:
                    new1[k] = n1
                if n2:
                    new2[k] = n2
            store[c1], store[c2] = new1, new2

    active = list(range(ncols))
    pivots: list[tuple[int, int]] = []  # (row, column) in elimination order
    for r in range(nrows):
        carriers = [c for c in active if r in acol[c]]
        if not carriers:
            continue
        lead = carriers[0]
        for c in carriers[1:]:
            combine(lead, c, acol[lead].get(r, 0), acol[c][r])
        active.remove(lead)
        pivots.append((r, lead))

    residue = {i: v for i, v in enumerate(target) if v}
    y = [0] * ncols
    for r, c in pivots:
        if r not in residue:
            continue
        d = acol[c][r]
        if residue[r] % d:
            return None
        q = residue[r] // d
        y[c] = q
        for i, v in acol[c].items():
            nv = residue.get(i, 0) - q * v
            if nv:
                residue[i] = nv
            elif i in residue:
                del residue[i]
    if residue:
        return None
    coords = [0] * ncols
    for c in range(ncols):
        if y[c]:
            for j, w in wcol[c].items():
                coords[j] += y[c] * w
    return coords


# ---------------------------------------------------------------------------
# Field reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldReduction:
    """Row-reduced data of a matrix over Q or Z/p."""

    rank: int
    pivots: tuple[int, ...]
    rref: ExactMatrix
    kernel: tuple[tuple, ...]  # kernel basis vectors (length = cols)


def field_reduce(A: ExactMatrix) -> FieldReduction:
    """Exact reduced row echelon form with kernel basis, fields only."""
    ring = A.ring
    if not ring.is_field:
        raise RingMismatchError("field_reduce needs Q or Z/p; got Z")
    m, n = A.rows, A.cols
    M = A.to_rows()
    if ring.kind == "Zp":
        p = ring.p

        def normalize(row):
            return [v % p for v in row]

        M = [normalize(r) for r in M]
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if M[i][c] != 0), None)
        if pivot_row is None:
            continue
        M[r], M[pivot_row] = M[pivot_row], M[r]
        inv = ring.invert(M[r][c])
        M[r] = [ring.convert(v * inv) for v in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [ring.convert(a - f * b) if b else a for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    rank = len(pivots)
    pivot_set = set(pivots)
    kernel = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [ring.zero()] * n
        vec[free] = ring.one()
        for k, c in enumerate(pivots):
            vec[c] = ring.convert(-M[k][free])
        kernel.append(tuple(vec))
    return FieldReduction(rank, tuple(pivots), ExactMatrix(ring, M, n), tuple(kernel))

