"""Shared test helpers: matrix literals in the package's layout, the split
of a column reduction, the full simplex, catalog lookups, descriptor
literals, random cores, bases and descriptors, and the two-step base ring that the one-pass wedge builder
replaced.

The package stores every matrix as a list of ``{row: value}`` columns.
Tests write small matrices as dense row-major literals and hand them over
through :func:`transpose`, which also turns boundary columns back into
the rows that the dense references in ``*_reference.py`` read.
"""

import random

from reeb_bubble.catalog import ENTRIES, CatalogEntry
from reeb_bubble.coefficients import CoefficientRing
from reeb_bubble.descriptor import (
    BaseSpec,
    BubblingRecord,
    RecordKind,
    ReebDescriptor,
    SphereSpec,
)
from reeb_bubble.graded import (
    BasisElement,
    ConnSum,
    PresentedGradedRing,
    Product,
    Sphere,
    cps_cohomology,
    dimension,
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


def desc(n, handles, records):
    return ReebDescriptor(BaseSpec(n, tuple(handles)), tuple(records))


def record(kind, *spheres):
    return BubblingRecord(kind, tuple(spheres))


def random_descriptor(rng, n=None):
    """A random descriptor of dimension ``n`` (2 to 5 if not given) on up to
    three sphere cores, with up to three records of random kinds."""
    n = n or rng.randint(2, 5)
    handles = [Sphere(rng.randint(1, n - 1)) for _ in range(rng.randint(0, 3))]
    classes = BaseSpec(n, tuple(handles)).classes  # of sphere cores: all nu<j>
    records = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(list(RecordKind))
        if kind.is_point:
            records.append(record(kind))
            continue
        arity = 1 if kind.is_normal else rng.randint(0, 2)
        spheres = []
        for _ in range(arity):
            dim = 0 if n < 3 else rng.randint(0, n - 2)
            coeffs = {}
            if dim >= 1:
                for ident, deg in classes:
                    if deg == dim and rng.random() < 0.6:
                        c = rng.randint(-3, 3)
                        if c:
                            coeffs[ident] = c
            spheres.append(SphereSpec(dim, coeffs))
        records.append(record(kind, *spheres))
    return desc(n, handles, records)


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


def random_bases(seed):
    """60 seeded bases of up to three random cores of dimension at most 4."""
    rng = random.Random(4100 + seed)
    for _ in range(60):
        handles = [
            random_expr(rng, rng.randint(1, 4), rng.randint(0, 3))
            for _ in range(rng.randint(0, 3))
        ]
        yield BaseSpec(max([dimension(h) for h in handles], default=1) + 1, tuple(handles))


def reference_base_ring(base) -> PresentedGradedRing:
    """The base ring in two steps: a checked wedge of the cores' rings whose
    classes take fresh ids e1, e2, ... by position, then a copy renamed by
    ``BaseSpec.classes``.  Each core is built by ``cps_cohomology``, so a sphere
    core is a ring of its own here."""
    Z = CoefficientRing.integers()
    rings = [cps_cohomology(h) for h in base.handles]
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
    wedge = PresentedGradedRing(Z, top, basis, products)

    classes = base.classes
    assert [e.degree for e in wedge.basis] == [k for _, k in classes]
    name = {e.id: ident for e, (ident, _) in zip(wedge.basis, classes)}
    return PresentedGradedRing(
        Z,
        top,
        [BasisElement(name[e.id], e.degree) for e in wedge.basis],
        {
            (name[ia], name[ib]): {name[ic]: c for ic, c in vec.items()}
            for (ia, ib), vec in wedge.products.items()
        },
    )
