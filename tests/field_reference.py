"""Dense Gauss-Jordan elimination over Q and Z/p, the tests' field reference.

Nothing here shares code with the package's elimination, which reads field
ranks off integer elementary divisors.  Rows are dense lists or
``{col: value}`` dicts of integers (or fractions, over Q).
"""

from fractions import Fraction


def _invert(ring, x):
    if ring.kind == "Q":
        return 1 / Fraction(x)
    return pow(x, ring.p - 2, ring.p)


def field_row_reduce(ring, rows, cols: int):
    """Rank, pivot columns and kernel basis of a matrix over Q or Z/p.

    The kernel vectors are tuples of length ``cols``, one per free column,
    with a one in that column.
    """
    if not ring.is_field:
        raise ValueError("the field reference needs Q or Z/p")
    M = [
        [ring.convert(row.get(j, 0) if isinstance(row, dict) else row[j]) for j in range(cols)]
        for row in rows
    ]
    m = len(M)
    pivots = []
    r = 0
    for c in range(cols):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if M[i][c] != 0), None)
        if pivot_row is None:
            continue
        M[r], M[pivot_row] = M[pivot_row], M[r]
        inv = _invert(ring, M[r][c])
        M[r] = [ring.convert(v * inv) for v in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [ring.convert(a - f * b) if b else a for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    kernel = []
    for free in range(cols):
        if free in pivots:
            continue
        vec = [ring.convert(0)] * cols
        vec[free] = ring.convert(1)
        for k, c in enumerate(pivots):
            vec[c] = ring.convert(-M[k][free])
        kernel.append(tuple(vec))
    return len(pivots), tuple(pivots), tuple(kernel)


def field_rank(ring, rows, cols: int) -> int:
    return field_row_reduce(ring, rows, cols)[0]


def field_kernel(ring, rows, cols: int) -> list[tuple]:
    return list(field_row_reduce(ring, rows, cols)[2])
