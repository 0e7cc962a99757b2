"""Explicit simplicial complexes, chain complexes, homology and cup products.

Everything here is exact: boundary matrices over the integers, homology by
elementary divisors, cohomology rings by the Alexander-Whitney front/back
rule on ordered simplices.  Complexes are immutable; vertices are ints
ordered as integers, so every derived complex (product, wedge, cylinder,
gluing) numbers the vertices it creates, and simplices are strictly
increasing int tuples that sort and hash as plain tuples.  Every gluing,
wedges and connected sums included, is a pushout through
:func:`glue_along`, which keeps K's vertex numbers and numbers L's new
vertices after them.

Minimal spheres, their products in pairs and degree maps are standard
pieces: each is built once per process and shared, read-only.  Per-simplex
work runs in set and iterator built-ins: boundary faces are zipped from
vertex columns, and a gluing relabels and tests its simplices in bulk.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, repeat
from types import MappingProxyType

from .coefficients import CoefficientRing, ColumnReduction, sparse_column_reduction
from .graded import BasisElement, GradedModule, PresentedGradedRing

__all__ = [
    "SimplicialComplex",
    "SimplicialMap",
    "ChainComplexZ",
    "chain_complex_of",
    "homology_of_chain_complex",
    "homology_of_complex",
    "euler_characteristic",
    "sphere_complex",
    "polygon_complex",
    "product_complex",
    "sphere_product",
    "wedge_complexes",
    "connected_sum_with_maps",
    "suspension_complex",
    "mapping_cylinder",
    "glue_along",
    "top_cycle",
    "measured_degree",
    "degree_map",
    "cup_ring_of_complex",
]


# ---------------------------------------------------------------------------
# complexes and maps
# ---------------------------------------------------------------------------


class SimplicialComplex:
    """Downward-closed family of simplices on integer vertices.

    ``vertices`` are ints in strictly increasing order, and the integers'
    order is the vertex order.  Simplices are strictly increasing tuples of
    vertices.  ``check=True`` validates both and the closure under faces.
    """

    __slots__ = ("vertices", "simplices", "_dim", "_by_dim", "_index", "_chain")

    def __init__(self, vertices, simplices, *, check=True):
        self.vertices = tuple(vertices)
        self.simplices = frozenset(simplices)
        self._dim = None
        self._by_dim = None
        self._index = None
        self._chain = None
        if check:
            self._validate()

    def _validate(self):
        vs = self.vertices
        for v in vs:
            if type(v) is not int:
                raise ValueError(f"vertex {v!r} is not an int")
        if any(a >= b for a, b in zip(vs, vs[1:])):
            raise ValueError("vertices are not strictly increasing")
        known = set(vs)
        for s in self.simplices:
            if type(s) is not tuple or not s:
                raise ValueError(f"simplex {s!r} is not a non-empty tuple")
            if not known.issuperset(s):
                raise ValueError(f"simplex {s} uses unknown vertex")
            if any(a >= b for a, b in zip(s, s[1:])):
                raise ValueError(f"simplex {s} not sorted by vertex order")
            for face in combinations(s, len(s) - 1):
                if face and face not in self.simplices:
                    raise ValueError(f"missing face {face} of {s}")
        for v in vs:
            if (v,) not in self.simplices:
                raise ValueError(f"vertex {v} missing as a 0-simplex")

    @classmethod
    def from_facets(cls, vertices, facets):
        """Build the downward closure of the given facets."""
        vertices = tuple(vertices)
        simplices = set((v,) for v in vertices)
        for f in facets:
            f = tuple(sorted(f))
            for size in range(1, len(f) + 1):
                simplices.update(combinations(f, size))
        return cls(vertices, simplices, check=False)

    # -- queries -----------------------------------------------------------

    @property
    def dim(self) -> int:
        if self._dim is None:
            self._dim = max(map(len, self.simplices), default=0) - 1
        return self._dim

    def simplices_of_dim(self, k: int) -> list[tuple]:
        if self._by_dim is None:
            by_dim = {}
            for s in self.simplices:
                by_dim.setdefault(len(s) - 1, []).append(s)
            for group in by_dim.values():
                group.sort()
            self._by_dim = by_dim
        return self._by_dim.get(k, [])

    def index_of(self, k: int):
        if self._index is None:
            self._index = {}
        if k not in self._index:
            basis = self.simplices_of_dim(k)
            self._index[k] = dict(zip(basis, range(len(basis))))
        return self._index[k]

    def has(self, vs) -> bool:
        return tuple(sorted(vs)) in self.simplices

    def restrict_full(self, vertex_subset) -> "SimplicialComplex":
        keep = set(vertex_subset)
        vertices = tuple(v for v in self.vertices if v in keep)
        simplices = {s for s in self.simplices if keep.issuperset(s)}
        return SimplicialComplex(vertices, simplices, check=False)

    def counts(self) -> tuple[int, ...]:
        return tuple(len(self.simplices_of_dim(k)) for k in range(self.dim + 1))

    def __repr__(self):
        return f"SimplicialComplex(dim={self.dim}, counts={self.counts()})"


@dataclass(frozen=True)
class SimplicialMap:
    domain: SimplicialComplex
    codomain: SimplicialComplex
    vertex_map: dict

    def __post_init__(self):
        for v in self.domain.vertices:
            if v not in self.vertex_map:
                raise ValueError(f"vertex {v} has no image")
        for s in self.domain.simplices:
            image = set(self.vertex_map[v] for v in s)
            if not self.codomain.has(image):
                raise ValueError(f"image of {s} spans no simplex")

    def chain_image(self, chain: dict) -> dict:
        """Push a chain forward; degenerate simplices die, reorderings sign."""
        out = {}
        for s, c in chain.items():
            image = [self.vertex_map[v] for v in s]
            if len(set(image)) != len(image):
                continue
            inversions = sum(
                1
                for i in range(len(image))
                for j in range(i + 1, len(image))
                if image[i] > image[j]
            )
            t = tuple(sorted(image))
            sign = -1 if inversions % 2 else 1
            out[t] = out.get(t, 0) + sign * c
        return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------


class ChainComplexZ:
    """Integer chain complex: ordered bases and column-sparse boundary matrices.

    ``boundaries[k]`` maps degree-k chains into degree k-1.  It is a list
    of columns, one per cell of ``bases[k]``: the boundary of that cell as
    a ``{row: value}`` dict over the rows ``range(len(bases[k-1]))``,
    holding no zero entries.  This is the layout the builders write and
    :func:`~reeb_bubble.coefficients.sparse_column_reduction` reads, so
    the constructor keeps the caller's columns without copying them.  It
    always checks the row indices, on one set union per boundary; with
    ``check=True`` it also rejects
    zero entries and checks that consecutive boundaries compose to zero.

    Each boundary is eliminated at most once, from the top degree down,
    with clearing (the "twist" of Chen & Kerber, 2011): :meth:`reduction`
    reduces the k-th boundary with every column left out that is a unit
    pivot row of the (k+1)-th boundary's reduction.  The retired unit
    columns b_t of the (k+1)-th boundary are unitriangular on those rows,
    so with the kept cells they form a basis of the chain group, and the
    k-th boundary kills them.  It therefore has the same image, hence the
    same elementary divisors, on the kept columns alone, and its cycle
    lattice is span(b_t) plus the cleared kernel.  Integral homology reads
    the divisors once and is cached here; every other ring's homology is
    derived from it.  The integral cocycle solvers read the cleared
    splitting, and :func:`top_cycle` reads the top degree, where nothing is
    cleared.  Cup rings over every ring read the one integral cup ring,
    checked once and cached here per top degree (the integral solvers that
    build it are not kept), so a Z/p cup ring of a complex with torsion,
    whose Tor classes no integral cocycle carries, is refused.
    """

    __slots__ = ("bases", "boundaries", "_reductions", "_products", "_integral_homology")

    def __init__(self, bases, boundaries, *, check=True):
        self.bases = [list(b) for b in bases]
        self._reductions = {}
        self._products = {}
        self._integral_homology = None
        if len(boundaries) != len(self.bases):
            raise ValueError("need one boundary matrix per degree")
        for k, m in enumerate(boundaries):
            if len(m) != len(self.bases[k]):
                raise ValueError(
                    f"boundary {k} has {len(m)} columns, want {len(self.bases[k])}"
                )
            rows = len(self.bases[k - 1]) if k > 0 else 0
            used = set().union(*m)
            if used and (min(used) < 0 or max(used) >= rows):
                raise ValueError(f"boundary {k} has a row index outside range({rows})")
        self.boundaries = boundaries
        if check:
            self._check_dd()

    def _check_dd(self):
        for k, m in enumerate(self.boundaries):
            below = self.boundaries[k - 1] if k > 0 else ()
            for col in m:
                if not all(col.values()):
                    raise ValueError(f"boundary {k} has a zero entry")
                acc: dict[int, int] = {}
                for t, v in col.items():
                    for i, w in below[t].items():
                        acc[i] = acc.get(i, 0) + v * w
                if any(acc.values()):
                    raise ValueError(f"boundary squared nonzero at degree {k}")

    @property
    def max_degree(self) -> int:
        return len(self.bases) - 1

    def dim_at(self, k: int) -> int:
        return len(self.bases[k]) if 0 <= k <= self.max_degree else 0

    def reduction(self, k: int) -> ColumnReduction:
        """Column reduction of the k-th boundary matrix, cleared, computed once.

        Reductions run from the top degree down: every unit pivot row of
        ``reduction(k + 1)``, a key of its ``units``, names a column of the
        k-th boundary that is left out (cleared).  Those are the lowest rows
        of the unit columns, listed descending (see
        :func:`~reeb_bubble.coefficients.sparse_column_reduction`).
        The divisors stay those of the whole matrix, and the kernel is the
        cleared kernel (see the class docstring).
        The top degree is reduced whole.  Degree 0 reduces the zero map
        out of degree 0.
        """
        red = self._reductions.get(k)
        if red is None:
            cleared = frozenset()
            if k < self.max_degree and self.dim_at(k) and self.dim_at(k + 1):
                cleared = self.reduction(k + 1).units
            red = self._reductions[k] = sparse_column_reduction(self.boundaries[k], cleared)
        return red


def _faces(simplices):
    """Per position i, the faces without vertex i of equal-length simplices,
    in order, zipped from their vertex columns."""
    columns = list(zip(*simplices))
    return [zip(*columns[:i], *columns[i + 1 :]) for i in range(len(columns))]


def chain_complex_of(K: SimplicialComplex) -> ChainComplexZ:
    if K._chain is not None:
        return K._chain
    top = K.dim
    bases = [K.simplices_of_dim(k) for k in range(top + 1)]
    # the empty complex has no degrees, so no boundaries
    boundaries = [[{} for _ in b] for b in bases[:1]]
    for k in range(1, top + 1):
        index = K.index_of(k - 1).__getitem__
        rows = zip(*(map(index, faces) for faces in _faces(bases[k])))
        # the faces of a simplex are distinct, so each entry is set once
        signs = [(-1) ** i for i in range(k + 1)]
        boundaries.append(list(map(dict, map(zip, rows, repeat(signs)))))
    cx = ChainComplexZ(bases, boundaries, check=False)
    K._chain = cx
    return cx


def homology_of_chain_complex(cx: ChainComplexZ, R: CoefficientRing) -> GradedModule:
    """Homology over R by universal coefficients from integral homology, which
    is read off the boundaries' divisors once per complex: over Q its free
    ranks, and over Z/p one more dimension in H_k and H_{k+1} for each
    divisor of tors H_k that p divides."""
    hz = cx._integral_homology
    if hz is None:
        top = cx.max_degree
        divisors = [
            cx.reduction(k).divisors if k and cx.dim_at(k) and cx.dim_at(k - 1) else ()
            for k in range(top + 2)
        ]
        hz = cx._integral_homology = GradedModule(
            CoefficientRing.integers(),
            tuple(cx.dim_at(k) - len(divisors[k]) - len(divisors[k + 1]) for k in range(top + 1)),
            tuple(tuple(d for d in divs if d > 1) for divs in divisors[1:]),
        )
    if R.kind == "Z":
        return hz
    if R.kind == "Q":
        return GradedModule(R, hz.free_ranks)
    # tor[k + 1] counts the divisors of tors H_k that p divides
    tor = [0] + [sum(d % R.p == 0 for d in t) for t in hz.torsion]
    return GradedModule(R, tuple(map(sum, zip(hz.free_ranks, tor, tor[1:]))))


def homology_of_complex(K: SimplicialComplex, R: CoefficientRing) -> GradedModule:
    return homology_of_chain_complex(chain_complex_of(K), R)


def euler_characteristic(K: SimplicialComplex) -> int:
    # a simplex of even dimension has an odd number of vertices
    return sum(c if n % 2 else -c for n, c in Counter(map(len, K.simplices)).items())


# ---------------------------------------------------------------------------
# basic constructors
# ---------------------------------------------------------------------------


_PIECE_BOUND = 12  # covers the catalog, the pools and a coefficient-12 verify
_PIECES: dict = {}


def _shared(key, build):
    """The standard piece ``build()`` named by ``key``, a name and ints:
    shared while no int exceeds ``_PIECE_BOUND`` in size, else fresh."""
    piece = _PIECES.get(key)
    if piece is None:
        piece = build()
        if max(map(abs, key[1:])) <= _PIECE_BOUND:
            _PIECES[key] = piece
    return piece


def sphere_complex(k: int) -> SimplicialComplex:
    """Boundary of the (k+1)-simplex: the minimal k-sphere, shared."""
    if k < 0:
        raise ValueError("dimension must be >= 0")
    vs = tuple(range(k + 2))
    return _shared(
        ("sphere", k), lambda: SimplicialComplex.from_facets(vs, combinations(vs, k + 1))
    )


def sphere_product(a: int, b: int) -> SimplicialComplex:
    """``product_complex(sphere_complex(a), sphere_complex(b))``, shared."""
    return _shared(
        ("product", a, b), lambda: product_complex(sphere_complex(a), sphere_complex(b))
    )


def polygon_complex(m: int) -> SimplicialComplex:
    """Cycle with m vertices; a subdivided circle."""
    if m < 3:
        raise ValueError("polygon needs at least 3 vertices")
    vs = tuple(range(m))
    return SimplicialComplex.from_facets(vs, [(i, (i + 1) % m) for i in range(m)])


def product_complex(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Staircase triangulation of |K| x |L|.

    The vertex (u, v) is numbered rank(u) * |L| + rank(v), where a rank is
    a position in ``vertices``: the pairs in lexicographic order.  Facets
    are the monotone staircase chains through products of maximal simplices.
    """
    m = len(L.vertices)
    k_rank = {u: i for i, u in enumerate(K.vertices)}
    l_rank = {v: j for j, v in enumerate(L.vertices)}
    k_max = _maximal_simplices(K)
    l_max = _maximal_simplices(L)
    facets = []
    for s in k_max:
        s = [k_rank[u] * m for u in s]
        for t in l_max:
            t = [l_rank[v] for v in t]
            p, q = len(s) - 1, len(t) - 1
            for positions in combinations(range(p + q), p):
                i = j = 0
                chain = [s[0] + t[0]]
                for step in range(p + q):
                    if step in positions:
                        i += 1
                    else:
                        j += 1
                    chain.append(s[i] + t[j])
                facets.append(chain)
    return SimplicialComplex.from_facets(range(len(K.vertices) * m), facets)


def _maximal_simplices(K: SimplicialComplex) -> list[tuple]:
    """The simplices that are no codimension-one face of another, which in
    a complex closed under faces are the maximal ones: linear time."""
    faces = set()
    for k in range(1, K.dim + 1):
        for column in _faces(K.simplices_of_dim(k)):
            faces.update(column)
    return sorted(K.simplices - faces)


def wedge_complexes(complexes, basepoints=None):
    """Wedge at one chosen vertex per summand.

    Returns (wedge, inclusion vertex maps).  Starting from the point 0,
    each summand is glued on at its basepoint by :func:`glue_along`, so the
    shared vertex is 0 and each summand's other vertices follow in order,
    summand by summand; empty input gives the single point.
    """
    complexes = list(complexes)
    if basepoints is None:
        basepoints = [K.vertices[0] for K in complexes]
    W = point = SimplicialComplex((0,), {(0,)}, check=False)
    maps = []
    for i, (K, bp) in enumerate(zip(complexes, basepoints)):
        if bp not in K.vertices:
            raise ValueError(f"basepoint {bp} not a vertex of summand {i}")
        W, vmap = glue_along(W, point, K, K.restrict_full([bp]), {0: bp})
        maps.append(vmap)
    return W, maps


def suspension_complex(K: SimplicialComplex):
    """Suspension of K; the two poles are numbered max + 1 and max + 2."""
    a = K.vertices[-1] + 1 if K.vertices else 0
    b = a + 1
    vertices = K.vertices + (a, b)
    simplices = set(K.simplices) | {(a,), (b,)}
    for s in K.simplices:
        simplices.add(s + (a,))
        simplices.add(s + (b,))
    return SimplicialComplex(vertices, simplices, check=False)


# ---------------------------------------------------------------------------
# surgery constructors
# ---------------------------------------------------------------------------


def connected_sum_with_maps(
    K: SimplicialComplex,
    L: SimplicialComplex,
    dim: int,
    avoid_K=(),
    avoid_L=(),
    join_K=None,
    join_L=None,
):
    """Connected sum: drop one facet from each, identify the boundary spheres.

    Facets are chosen away from the ``avoid`` vertex sets so distinguished
    subcomplexes (sections, basepoints) survive.  The two punctured
    complexes are glued along the boundaries of the dropped facets by
    :func:`glue_along`, which returns the sum and L's vertex map: K keeps
    its vertex numbers, and L's vertices off the identified sphere are
    numbered max(K) + 1, max(K) + 2, ... in L's order.  Any order-respecting
    identification of the boundary spheres is accepted: for the closed
    manifolds this package builds, both gluing orientations give the same
    homology and pairing invariants.

    When ``join_K`` and ``join_L`` are given, the removed facets are chosen
    through those vertices and the identification matches them, so the two
    named vertices become one vertex of the sum (numbered ``join_K``).
    """
    avoid_K, avoid_L = set(avoid_K), set(avoid_L)
    if (join_K is None) != (join_L is None):
        raise ValueError("join vertices must be supplied for both sides or neither")
    sigma = _pick_facet(K, dim, avoid_K, must=join_K)
    tau = _pick_facet(L, dim, avoid_L, must=join_L)
    if join_K is None:
        iso = dict(zip(sigma, tau))
    else:
        iso = {join_K: join_L}
        iso.update(zip([v for v in sigma if v != join_K], [v for v in tau if v != join_L]))
    # every simplex on tau's vertices is a face of tau, so the collision
    # guard of glue_along cannot fire
    G, map_L = glue_along(
        SimplicialComplex(K.vertices, K.simplices - {sigma}, check=False),
        SimplicialComplex.from_facets(sigma, combinations(sigma, dim)),
        SimplicialComplex(L.vertices, L.simplices - {tau}, check=False),
        SimplicialComplex.from_facets(tau, combinations(tau, dim)),
        iso,
    )
    want = euler_characteristic(K) + euler_characteristic(L) - (1 + (-1) ** dim)
    got = euler_characteristic(G)
    if got != want:
        raise RuntimeError(f"connected sum Euler characteristic {got}, expected {want}")
    return G, map_L


def _pick_facet(K: SimplicialComplex, dim: int, avoid: set, must=None) -> tuple:
    """The least dimension-``dim`` simplex through ``must`` clear of ``avoid``."""
    size = dim + 1
    facet = min(
        (
            s
            for s in K.simplices
            if len(s) == size and (must is None or must in s) and avoid.isdisjoint(s)
        ),
        default=None,
    )
    if facet is None:
        where = " through the join vertex" if must is not None else ""
        raise ValueError(f"no dimension-{dim} facet{where} clear of the avoid set")
    return facet


def mapping_cylinder(f: SimplicialMap):
    """Ordered mapping cylinder of a simplicial map.

    The domain's vertices are numbered 0 .. |K| - 1 and the codomain's
    follow, each in order; ``dlab`` and ``clab`` are these numberings.  For
    each domain simplex v0..vk the prisms are the sets {v0..vi} u f({vi..vk}).
    The result contains disjoint full copies of domain and codomain and
    deformation retracts to the codomain; the retraction is verified by
    comparing integral homology on every call.
    """
    K, L = f.domain, f.codomain
    nk = len(K.vertices)
    dlab = {v: i for i, v in enumerate(K.vertices)}
    clab = {w: nk + j for j, w in enumerate(L.vertices)}
    facets = [[clab[w] for w in s] for s in L.simplices]
    cmap = {v: clab[f.vertex_map[v]] for v in K.vertices}
    for s in K.simplices:
        front = [dlab[v] for v in s]
        for i in range(len(s)):
            facets.append(front[: i + 1] + sorted({cmap[v] for v in s[i:]}))
    C = SimplicialComplex.from_facets(range(nk + len(L.vertices)), facets)
    hc = homology_of_complex(C, CoefficientRing.integers())
    hl = homology_of_complex(L, CoefficientRing.integers())
    pad = max(hc.max_degree, hl.max_degree)
    if hc.padded(pad) != hl.padded(pad):
        raise RuntimeError("mapping cylinder failed to retract to the codomain")
    return C, dlab, clab


def glue_along(
    K: SimplicialComplex,
    A: SimplicialComplex,
    L: SimplicialComplex,
    B: SimplicialComplex,
    iso: dict,
):
    """Union of K and L identifying subcomplexes A and B via ``iso``.

    The identification must carry A's simplices exactly onto B's.  If the
    two sides share any simplex beyond the identified subcomplex the union
    would not be the intended pushout, so that situation raises (subdivide
    first).  K keeps its vertex numbers; L's vertices outside B are numbered
    max(K) + 1, max(K) + 2, ... in L's order.  Returns (glued, L vertex
    map).  Every wedge and connected sum of this module is built here.
    B lands on A, so only L's simplices outside B are relabelled, in one
    pass, and tested for collisions in one set operation.
    """
    _require_subcomplex(A, K, "A")
    _require_subcomplex(B, L, "B")
    if set(iso.keys()) != set(A.vertices) or set(iso.values()) != set(B.vertices):
        raise ValueError("iso must be a vertex bijection from A onto B")
    if len(set(iso.values())) != len(iso):
        raise ValueError("iso must be injective")
    a_images = {tuple(sorted([iso[v] for v in s])) for s in A.simplices}
    if a_images != B.simplices:
        raise ValueError("iso does not carry A's simplices onto B's")
    map_L = {b: a for a, b in iso.items()}
    start = K.vertices[-1] + 1 if K.vertices else 0
    new = tuple(range(start, start + len(L.vertices) - len(iso)))
    map_L.update(zip([w for w in L.vertices if w not in map_L], new))
    relabel = map_L.__getitem__
    images = {tuple(sorted(map(relabel, s))) for s in L.simplices - B.simplices}
    # an image inside K uses identified vertices only: new ones exceed max(K)
    if not images.isdisjoint(K.simplices):
        clash = min(images & K.simplices)
        raise ValueError(
            f"a simplex of L outside B collides with {clash} in K; subdivide before gluing"
        )
    G = SimplicialComplex(K.vertices + new, K.simplices | images, check=False)
    return G, map_L


def _require_subcomplex(A: SimplicialComplex, K: SimplicialComplex, name: str):
    if not set(A.vertices) <= set(K.vertices):
        raise ValueError(f"{name} has vertices outside its ambient complex")
    if not A.simplices <= K.simplices:
        raise ValueError(f"{name} is not a subcomplex of its ambient complex")


# ---------------------------------------------------------------------------
# degree maps
# ---------------------------------------------------------------------------


def top_cycle(K: SimplicialComplex) -> dict:
    """The fundamental cycle of a complex with top homology of rank one.

    Sign convention: the first top simplex (in basis order) with nonzero
    coefficient gets a positive one.
    """
    cx = chain_complex_of(K)
    k = cx.max_degree
    kernel = cx.reduction(k).kernel_cols
    if len(kernel) != 1:
        raise ValueError(f"top homology rank {len(kernel)}, expected 1")
    vec = kernel[0]
    sign = -1 if vec[min(vec)] < 0 else 1
    basis = cx.bases[k]
    return {basis[i]: sign * c for i, c in sorted(vec.items())}


def measured_degree(f: SimplicialMap) -> int:
    """Chain-level multiplier of f on top cycles, both canonically signed."""
    z_dom = top_cycle(f.domain)
    z_cod = top_cycle(f.codomain)
    image = f.chain_image(z_dom)
    items = list(z_cod.items())
    s0, c0 = items[0]
    mu_num = image.get(s0, 0)
    if mu_num % c0:
        raise RuntimeError("image is not a multiple of the codomain cycle")
    mu = mu_num // c0
    if image != ({} if mu == 0 else {s: mu * c for s, c in z_cod.items()}):
        raise RuntimeError("image chain is not proportional to the codomain cycle")
    return mu


def _winding_pattern(d: int, j: int) -> int:
    if d > 0:
        return j % 3
    if d < 0:
        return (-j) % 3
    return 0


def degree_map(l: int, d: int) -> SimplicialMap:
    """A simplicial self-map model of the degree-d map on the l-sphere.

    Domain: an (l-1)-fold suspension of a polygon of 3 max(|d|, 1) vertices
    winding around the triangle.  Codomain: the minimal sphere.  Each
    suspension reverses the orientation the winding induces, so the polygon
    winds by d for odd l and by -d for even l.  The chain-level multiplier,
    measured against the canonical fundamental cycles, is verified to equal
    d when the map is built.  Polygon vertex 0, the domain's first vertex,
    lies over codomain vertex 0.  A standard piece: built and measured once
    per process for each l, |d| <= 12, then shared with a read-only
    ``vertex_map``.
    """
    if l < 1:
        raise ValueError("degree maps need l >= 1")
    return _shared(("degree", l, d), lambda: _build_degree_map(l, d))


def _build_degree_map(l: int, d: int) -> SimplicialMap:
    winding = d if l % 2 else -d
    m = 3 * max(abs(d), 1)
    f = SimplicialMap(
        polygon_complex(m),
        sphere_complex(1),
        MappingProxyType({i: _winding_pattern(winding, i) for i in range(m)}),
    )
    for step in range(l - 1):
        # send one new pole over the fresh apex, the other into the old
        # sphere: the classical cone/base decomposition of the suspension
        dome = suspension_complex(f.domain)
        vmap = dict(f.vertex_map)
        vmap[dome.vertices[-2]] = step + 3
        vmap[dome.vertices[-1]] = 0
        f = SimplicialMap(dome, sphere_complex(step + 2), MappingProxyType(vmap))
    mu = measured_degree(f)
    if mu != d:
        raise RuntimeError(f"degree map for (l={l}, d={d}) measured {mu}")
    return f


# ---------------------------------------------------------------------------
# cup products
# ---------------------------------------------------------------------------


class _DegreeSolver:
    """Basis and coordinates for one integral cohomology degree k.

    Works in the cleared splitting of the chain group (see
    :class:`ChainComplexZ`), read off the split that the next degree's
    :class:`~reeb_bubble.coefficients.ColumnReduction` carries: the
    k-cycles are its ``units`` b_t plus the cleared kernel z_j, whose dual
    rows d_j read coordinates along it.  A cocycle kills every b_t, so it
    is seen through its values ``y`` on the z_j.  The ``residue`` columns,
    cleared on every unit pivot row, lie in the span of the z_j; ``y``
    must kill them read along the d_j, and the class basis ``kappa`` is a
    saturated basis of that kernel, with dual rows of its own.  With no
    residue the relations are empty and ``kappa`` is the identity.

    A cochain is a cocycle when it kills the units and the residue, which
    span the image of the next boundary: they span the lattice of its kept
    columns, and a cleared cell's boundary is an integral combination of
    kept ones by the unit columns' triangularity one degree up.  So the
    test reads one column per pivot, not one per (k+1)-cell.  The
    coordinate along class ``a`` is the dual row of ``kappa[a]`` applied
    to ``y``, an integer dot product, checked by rebuilding ``y``.

    Only the free part of integral cohomology is seen: torsion classes
    vanish on every cycle, and the Tor classes of Z/p cohomology reduce
    from no integral cocycle.  So Z and Z/p cup rings of a complex with
    torsion are refused (see :func:`cup_ring_of_complex`).
    """

    def __init__(self, reps, image, cycles, kappa, kappa_duals):
        self.reps = reps
        self._image = image
        self._cycles = cycles
        self._kappa = kappa
        self._kappa_duals = kappa_duals

    @property
    def rank(self):
        return len(self.reps)

    def coordinates(self, vec):
        """Integer coordinates of a cocycle along ``reps``; raises
        ``RuntimeError`` when ``vec`` is not a cocycle."""
        for col in self._image:
            s = 0
            for t, v in col.items():
                s += v * vec[t]
            if s:
                raise RuntimeError("cochain is not a cocycle: it does not kill the next boundary")
        y = {}
        for i, col in enumerate(self._cycles):
            s = 0
            for t, v in col.items():
                s += v * vec[t]
            if s:
                y[i] = s
        coords = []
        rebuilt: dict[int, int] = {}
        for dual, ka in zip(self._kappa_duals, self._kappa):
            c = sum(v * y.get(i, 0) for i, v in dual.items())
            coords.append(c)
            if c:
                for i, v in ka.items():
                    rebuilt[i] = rebuilt.get(i, 0) + c * v
        if {i: v for i, v in rebuilt.items() if v} != y:
            raise RuntimeError("cocycle values leave the class lattice")
        return coords


def _build_integral_solver(cx: ChainComplexZ, k: int, expected_rank: int) -> _DegreeSolver:
    """The degree-k integral solver of ``cx``; raises ``RuntimeError`` unless
    it finds ``expected_rank`` classes, or when its dual basis check fails."""
    nk = cx.dim_at(k)
    red = cx.reduction(k)
    duals = red.kernel_dual_rows
    if k < cx.max_degree:
        above = cx.reduction(k + 1)
        units, residue = above.units, above.residue
    else:
        units, residue = {}, []
    # the residue read along the cleared kernel, one relation row per
    # column; classes are the values on it that kill them
    relations = []
    for d in duals:
        rel = {}
        for r, (_, b) in enumerate(residue):
            s = sum(v * d.get(t, 0) for t, v in b.items())
            if s:
                rel[r] = s
        relations.append(rel)
    classes = sparse_column_reduction(relations)
    reps = []
    for ka in classes.kernel_cols:
        vec = [0] * nk
        for i, coef in ka.items():
            for t, val in duals[i].items():
                vec[t] += coef * val
        # extend over the cleared cells, last listed unit first: a unit is
        # zero on the pivot rows listed before it, so the cochain then kills
        # every unit boundary (b[r] == 1 and vec[r] is still 0)
        for r, b in reversed(units.items()):
            vec[r] = -sum(v * vec[t] for t, v in b.items())
        reps.append(vec)
    if len(reps) != expected_rank:
        raise RuntimeError(
            f"degree {k}: found {len(reps)} cohomology classes, rank {expected_rank} expected"
        )
    image = [*units.values(), *(b for _, b in residue)]
    solver = _DegreeSolver(
        reps, image, red.kernel_cols, classes.kernel_cols, classes.kernel_dual_rows
    )
    for a, rep in enumerate(reps):
        coords = solver.coordinates(rep)
        if any(c != (1 if i == a else 0) for i, c in enumerate(coords)):
            raise RuntimeError(f"degree {k}: dual basis check failed")
    return solver


def _cup_products(K: SimplicialComplex, cx: ChainComplexZ, top: int, hom):
    """Basis ids and integral Alexander-Whitney product table through ``top``.

    ``hom`` is the integral homology of ``cx``; coordinates that are zero
    are left out.  The (front face, back face) index pairs of each degree
    pair are computed once and shared by all its basis pairs.
    """
    solvers = {}
    basis = []
    for k in range(1, top + 1):
        rank = hom.rank(k)
        if rank == 0:
            continue
        solvers[k] = _build_integral_solver(cx, k, rank)
        basis += [BasisElement(f"c{k}.{i + 1}", k) for i in range(rank)]

    faces = {}
    products = {}
    for p, sp in solvers.items():
        for ia, rep_a in enumerate(sp.reps):
            for q, sq in solvers.items():
                st = solvers.get(p + q)
                if st is None:
                    continue
                pairs = faces.get((p, q))
                if pairs is None:
                    idx_p, idx_q = K.index_of(p), K.index_of(q)
                    pairs = faces[(p, q)] = [
                        (idx_p[s[: p + 1]], idx_q[s[p:]]) for s in cx.bases[p + q]
                    ]
                for ib, rep_b in enumerate(sq.reps):
                    coords = st.coordinates([rep_a[i] * rep_b[j] for i, j in pairs])
                    entry = {f"c{p + q}.{i + 1}": c for i, c in enumerate(coords) if c}
                    if entry:
                        products[(f"c{p}.{ia + 1}", f"c{q}.{ib + 1}")] = entry
    return basis, products


def cup_ring_of_complex(
    K: SimplicialComplex, R: CoefficientRing, top_degree: int | None = None
) -> PresentedGradedRing:
    """Cohomology ring with Alexander-Whitney products in a chosen basis.

    Every ring is the integral product table, evaluated once per chain
    complex and top degree, with one integral solver built per degree, and
    checked once over Z by ``PresentedGradedRing`` before it is cached on
    the chain complex; a table that fails the check is not cached, so every
    ring that asks for it raises.  Each ring is the cached integral table
    read over R, unchecked (see :meth:`PresentedGradedRing.over`), which is
    a ring isomorphism onto the free part over Q, and over every ring when
    the integral homology is torsion-free; every ring of one table shares
    its pairing eliminations.
    Both refusals read the cached integral homology; a complex whose H_0 is
    not Z, the empty one included, is not connected.
    Torsion in H_{k-1} is torsion in integral H^k, and over Z/p torsion in
    H_k also adds Tor classes to H^k that no integral cocycle carries.  So
    over Z a complex with torsion below the top degree, and over Z/p one
    with any torsion through it (p-torsion or not: one rule), raises
    ``ValueError``.  No field elimination exists to fill the gap: every
    space this package models is torsion-free.
    """
    cx = chain_complex_of(K)
    homz = homology_of_chain_complex(cx, CoefficientRing.integers())
    if homz.rank(0) != 1:
        raise ValueError("cup rings require a connected complex")
    dim = cx.max_degree
    top = dim if top_degree is None else top_degree
    if top < 0:
        raise ValueError("top degree must be >= 0")
    reach = min(top, dim)
    if R.kind != "Q":
        # H^k torsion is the torsion of H_{k-1}; over Z/p, H_reach's torsion
        # reaches H^reach too, as Tor(H^{reach+1}, Z/p)
        last = reach if R.kind == "Z" else reach + 1
        for k in range(1, last + 1):
            if homz.torsion_at(k - 1):
                raise ValueError(
                    f"integral cohomology in degree {k} has torsion; "
                    f"{R.label} cup rings need a torsion-free complex, use Q"
                )
    integral = cx._products.get(reach)
    if integral is None:
        basis, products = _cup_products(K, cx, reach, homz)
        integral = PresentedGradedRing(CoefficientRing.integers(), reach, basis, products)
        cx._products[reach] = integral
    return integral.over(R, top)
