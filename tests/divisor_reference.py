"""Brute-force elementary divisors, the tests' reference for the kernel.

The k-th determinantal divisor d_k is the gcd of all k x k minors, and the
k-th elementary divisor is d_k / d_{k-1}.  Nothing here shares code with
the package's elimination; it is exponential in the matrix size and meant
for matrices up to about 8 x 8, or wider ones with few nonzero rows.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def _det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(out)


def determinantal_divisors(rows, cols: int) -> tuple[int, ...]:
    """Nonzero elementary divisors of dense or ``{col: value}`` rows."""
    dense = [
        [row.get(j, 0) for j in range(cols)] if isinstance(row, dict) else list(row)
        for row in rows
    ]
    dense = [row for row in dense if any(row)]
    used = [j for j in range(cols) if any(row[j] for row in dense)]
    dense = [[row[j] for j in used] for row in dense]
    out, prev = [], 1
    for k in range(1, min(len(dense), len(used)) + 1):
        g = 0
        for sub in combinations(dense, k):
            for cs in combinations(range(len(used)), k):
                g = gcd(g, _det([[row[j] for j in cs] for row in sub]))
                if g == prev:  # d_{k-1} divides d_k: it cannot get smaller
                    break
            if g == prev:
                break
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def modular_lattice_divisors(rows, cols: int, modulus: int) -> tuple[int, ...]:
    """Elementary divisors of ``span(rows) + modulus·Z^cols``."""
    dense = [
        [row.get(j, 0) for j in range(cols)] if isinstance(row, dict) else list(row)
        for row in rows
    ]
    scaled = [[modulus if i == j else 0 for j in range(cols)] for i in range(cols)]
    return determinantal_divisors(dense + scaled, cols)
