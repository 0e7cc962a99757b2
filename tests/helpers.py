"""Shared test helpers: matrix literals in the package's layout, the full
simplex, catalog lookups.

The package stores every matrix as a list of ``{row: value}`` columns.
Tests write small matrices as dense row-major literals and hand them over
through :func:`transpose`, which also turns boundary columns back into
the rows that the dense references in ``*_reference.py`` read.
"""

from reeb_bubble.catalog import ENTRIES, CatalogEntry
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
