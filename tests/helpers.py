"""Shared test helpers: matrix literals in the package's layout, the split
of a column reduction, the full simplex, catalog lookups, random cores,
and the two-step base ring that the one-pass wedge builder replaced.

The package stores every matrix as a list of ``{row: value}`` columns.
Tests write small matrices as dense row-major literals and hand them over
through :func:`transpose`, which also turns boundary columns back into
the rows that the dense references in ``*_reference.py`` read.
"""

from reeb_bubble.catalog import ENTRIES, CatalogEntry
from reeb_bubble.descriptor import base_classes
from reeb_bubble.graded import (
    BasisElement,
    ConnSum,
    PresentedGradedRing,
    Product,
    Sphere,
    cps_cohomology,
)
from reeb_bubble.oracle import tier2_obstruction
from reeb_bubble.simplicial import SimplicialComplex


def transpose(vectors, n: int) -> list[dict]:
    """The ``n`` sparse vectors of the transposed matrix, zeros dropped.

    ``vectors`` holds dense lists or ``{index: value}`` dicts: the rows of
    a matrix with ``n`` columns give its columns, and its columns with
    ``n`` rows give its rows.
    """
    out: list[dict] = [{} for _ in range(n)]
    for i, vec in enumerate(vectors):
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        for j, v in items:
            if v:
                out[j][i] = v
    return out


def check_split(red) -> None:
    """Assert the invariants of a column reduction's ``units`` and ``residue``.

    Every unit is 1 on its pivot row and every residue pivot exceeds 1;
    together they hold ``rank`` columns; units and residue are each listed
    by descending pivot row; the residue is zero on every unit row; and
    listed in order (units, then residue) the columns are triangular: each
    pivot row is zero in every column listed after it.  The cocycle solvers
    extend cochains over the unit rows in that order.
    """
    assert list(red.units) == sorted(red.units, reverse=True)
    assert [r for r, _ in red.residue] == sorted((r for r, _ in red.residue), reverse=True)
    assert all(col[r] == 1 for r, col in red.units.items())
    assert all(col[r] > 1 for r, col in red.residue)
    assert len(red.units) + len(red.residue) == red.rank
    for _, col in red.residue:
        assert not red.units.keys() & col.keys()
    listed = [*red.units.items(), *red.residue]
    position = {r: p for p, (r, _) in enumerate(listed)}
    for p, (r, col) in enumerate(listed):
        # a column is nonzero only on pivot rows listed at or after it
        assert all(position.get(t, p) >= p for t in col), (p, r)


def full_simplex(k: int) -> SimplicialComplex:
    """The k-simplex on the vertices 0..k with all its faces."""
    if k < 0:
        raise ValueError("dimension must be >= 0")
    vs = tuple(range(k + 1))
    return SimplicialComplex.from_facets(vs, [vs])


def catalog_entry(name: str) -> CatalogEntry:
    for e in ENTRIES:
        if e.name == name:
            return e
    raise KeyError(f"no catalog entry named {name!r}")


def tier2_entries() -> tuple[CatalogEntry, ...]:
    """The catalog instances that have a simplicial model."""
    return tuple(e for e in ENTRIES if tier2_obstruction(e.descriptor) is None)


def random_expr(rng, dim: int, depth: int):
    """A random Sphere/Product/ConnSum expression of dimension ``dim``,
    nested at most ``depth`` deep."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return Sphere(dim)
    if roll < 0.65 and dim >= 2:
        k = rng.randint(1, dim - 1)
        return Product(random_expr(rng, k, depth - 1), random_expr(rng, dim - k, depth - 1))
    return ConnSum(random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1))


def reference_base_ring(base, R) -> PresentedGradedRing:
    """The base ring in two steps: a checked wedge of the cores' rings whose
    classes take fresh ids e1, e2, ... by position, then a copy renamed by
    ``base_classes``.  Each core is built by ``cps_cohomology``, so a sphere
    core is a ring of its own here."""
    rings = [cps_cohomology(h, R) for h in base.handles]
    basis, index, products = [], {}, {}
    for i, src in enumerate(rings):
        for e in src.basis:
            index[(i, e.id)] = f"e{len(basis) + 1}"
            basis.append(BasisElement(index[(i, e.id)], e.degree))
        for (ia, ib), vec in src.products.items():
            products[(index[(i, ia)], index[(i, ib)])] = {
                index[(i, ic)]: c for ic, c in vec.items()
            }
    top = max((r.top_degree for r in rings), default=0)
    wedge = PresentedGradedRing(R, top, basis, products)

    classes = base_classes(base)
    assert [e.degree for e in wedge.basis] == [k for _, k in classes]
    name = {e.id: ident for e, (ident, _) in zip(wedge.basis, classes)}
    return PresentedGradedRing(
        R,
        top,
        [BasisElement(name[e.id], e.degree, e.provenance) for e in wedge.basis],
        {
            (name[ia], name[ib]): {name[ic]: c for ic, c in vec.items()}
            for (ia, ib), vec in wedge.products.items()
        },
        check=False,
    )
