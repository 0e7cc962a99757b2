"""Explicit simplicial complexes, chain complexes, homology and cup products.

Everything here is exact: boundary matrices over the integers, homology by
elementary divisors, cohomology rings by the Alexander-Whitney front/back
rule on ordered simplices.  Complexes are immutable; vertex labels are
arbitrary hashable values carrying an explicit total order, so derived
complexes (products, cylinders, gluings) can use structured labels without
relying on Python's comparison operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .coefficients import (
    CoefficientRing,
    ColumnReduction,
    rank_over,
    sparse_column_reduction,
)
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
    "full_simplex",
    "polygon_complex",
    "product_complex",
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
    """Downward-closed family of simplices over a totally ordered vertex set.

    Simplices are stored as tuples sorted by vertex rank, never by the
    labels' own comparison.
    """

    __slots__ = ("vertices", "rank", "simplices", "_by_dim", "_index", "_chain")

    def __init__(self, vertices, simplices, *, check=True):
        self.vertices = tuple(vertices)
        self.rank = {v: i for i, v in enumerate(self.vertices)}
        if len(self.rank) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        self.simplices = frozenset(tuple(s) for s in simplices)
        self._by_dim = None
        self._index = None
        self._chain = None
        if check:
            self._validate()

    def _validate(self):
        for s in self.simplices:
            if not s:
                raise ValueError("empty simplex")
            ranks = [self.rank.get(v) for v in s]
            if None in ranks:
                raise ValueError(f"simplex {s} uses unknown vertex")
            if any(a >= b for a, b in zip(ranks, ranks[1:])):
                raise ValueError(f"simplex {s} not sorted by vertex order")
            for face in combinations(s, len(s) - 1):
                if face and face not in self.simplices:
                    raise ValueError(f"missing face {face} of {s}")
        for v in self.vertices:
            if (v,) not in self.simplices:
                raise ValueError(f"vertex {v} missing as a 0-simplex")

    @classmethod
    def from_facets(cls, vertices, facets):
        """Build the downward closure of the given facets."""
        vertices = tuple(vertices)
        rank = {v: i for i, v in enumerate(vertices)}
        simplices = set((v,) for v in vertices)
        for f in facets:
            f = tuple(sorted(f, key=rank.__getitem__))
            for size in range(1, len(f) + 1):
                simplices.update(combinations(f, size))
        return cls(vertices, simplices, check=False)

    # -- queries -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def simplices_of_dim(self, k: int) -> list[tuple]:
        if self._by_dim is None:
            by_dim = {}
            for s in self.simplices:
                by_dim.setdefault(len(s) - 1, []).append(s)
            for group in by_dim.values():
                group.sort(key=lambda s: tuple(self.rank[v] for v in s))
            self._by_dim = by_dim
        return self._by_dim.get(k, [])

    def index_of(self, k: int):
        if self._index is None:
            self._index = {}
        if k not in self._index:
            self._index[k] = {s: i for i, s in enumerate(self.simplices_of_dim(k))}
        return self._index[k]

    def sort_simplex(self, vs) -> tuple:
        return tuple(sorted(vs, key=self.rank.__getitem__))

    def has(self, vs) -> bool:
        return self.sort_simplex(vs) in self.simplices

    def relabeled(self, mapping) -> "SimplicialComplex":
        if len(set(mapping[v] for v in self.vertices)) != len(self.vertices):
            raise ValueError("relabeling must be injective")
        vertices = tuple(mapping[v] for v in self.vertices)
        simplices = {tuple(mapping[v] for v in s) for s in self.simplices}
        return SimplicialComplex(vertices, simplices, check=False)

    def restrict_full(self, vertex_subset) -> "SimplicialComplex":
        keep = set(vertex_subset)
        vertices = tuple(v for v in self.vertices if v in keep)
        simplices = {s for s in self.simplices if all(v in keep for v in s)}
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
        rank = self.codomain.rank
        for s, c in chain.items():
            image = [self.vertex_map[v] for v in s]
            if len(set(image)) != len(image):
                continue
            ranks = [rank[w] for w in image]
            inversions = sum(
                1
                for i in range(len(ranks))
                for j in range(i + 1, len(ranks))
                if ranks[i] > ranks[j]
            )
            t = tuple(sorted(image, key=rank.__getitem__))
            sign = -1 if inversions % 2 else 1
            out[t] = out.get(t, 0) + sign * c
        return {k: v for k, v in out.items() if v}


def compose_maps(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    if f.codomain is not g.domain and f.codomain.simplices != g.domain.simplices:
        raise ValueError("maps do not compose")
    return SimplicialMap(
        f.domain, g.codomain, {v: g.vertex_map[f.vertex_map[v]] for v in f.domain.vertices}
    )


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------


class ChainComplexZ:
    """Integer chain complex: ordered bases and row-sparse boundary matrices.

    ``boundaries[k]`` maps degree-k chains into degree k-1.  It is a list
    of rows indexed by ``bases[k-1]``; each row is a ``{column: value}``
    dict over the columns ``range(len(bases[k]))``, holding no zero
    entries.  The constructor takes dense rows or dict rows and stores
    dicts, so no consumer ever reads a dense matrix.  Composition of
    consecutive boundaries is checked to vanish exactly.

    Each boundary is eliminated at most once: :meth:`reduction` caches its
    column reduction, and homology over every ring (through its elementary
    divisors), the integral cocycle solvers and :func:`top_cycle` all read
    that one.  Cup rings over every ring read the one integral product
    table cached here, so a Z/p cup ring of a complex with torsion, whose
    Tor classes no integral cocycle carries, is refused.
    """

    __slots__ = ("bases", "boundaries", "_reductions", "_solvers", "_products")

    def __init__(self, bases, boundaries, *, check=True):
        self.bases = [list(b) for b in bases]
        self._reductions = {}
        self._solvers = {}
        self._products = {}
        if len(boundaries) != len(self.bases):
            raise ValueError("need one boundary matrix per degree")
        self.boundaries = []
        for k, m in enumerate(boundaries):
            want_rows = len(self.bases[k - 1]) if k > 0 else 0
            if len(m) != want_rows:
                raise ValueError(f"boundary {k} has {len(m)} rows, want {want_rows}")
            cols = len(self.bases[k])
            rows = []
            for row in m:
                items = row.items() if isinstance(row, dict) else enumerate(row)
                entries = {j: v for j, v in items if v}
                if entries and (min(entries) < 0 or max(entries) >= cols):
                    raise ValueError(
                        f"boundary {k} has a column index outside range({cols})"
                    )
                rows.append(entries)
            self.boundaries.append(rows)
        if check:
            self._check_dd()

    def _check_dd(self):
        for k in range(1, len(self.boundaries) - 1):
            b = self.boundaries[k + 1]
            for row in self.boundaries[k]:
                acc: dict[int, int] = {}
                for t, v in row.items():
                    for j, w in b[t].items():
                        acc[j] = acc.get(j, 0) + v * w
                if any(acc.values()):
                    raise ValueError(f"boundary squared nonzero at degree {k + 1}")

    @property
    def max_degree(self) -> int:
        return len(self.bases) - 1

    def dim_at(self, k: int) -> int:
        return len(self.bases[k]) if 0 <= k <= self.max_degree else 0

    def reduction(self, k: int) -> ColumnReduction:
        """Column reduction of the k-th boundary matrix, computed once.

        Degree 0 reduces the zero map out of degree 0, whose kernel is the
        whole chain group.
        """
        red = self._reductions.get(k)
        if red is None:
            red = self._reductions[k] = sparse_column_reduction(
                self.boundaries[k], self.dim_at(k)
            )
        return red

    def boundary_divisors(self, k: int) -> tuple[int, ...]:
        """Elementary divisors of the k-th boundary matrix."""
        if k <= 0 or k > self.max_degree or not self.dim_at(k) or not self.dim_at(k - 1):
            return ()
        return self.reduction(k).divisors


def chain_complex_of(K: SimplicialComplex) -> ChainComplexZ:
    if K._chain is not None:
        return K._chain
    top = K.dim
    bases = [K.simplices_of_dim(k) for k in range(top + 1)]
    boundaries = [[]]
    for k in range(1, top + 1):
        index = K.index_of(k - 1)
        rows = [{} for _ in bases[k - 1]]
        for j, s in enumerate(bases[k]):
            # the faces of a simplex are distinct, so each entry is set once
            for i in range(len(s)):
                rows[index[s[:i] + s[i + 1 :]]][j] = -1 if i % 2 else 1
        boundaries.append(rows)
    cx = ChainComplexZ(bases, boundaries, check=False)
    K._chain = cx
    return cx


def homology_of_chain_complex(cx: ChainComplexZ, R: CoefficientRing) -> GradedModule:
    top = cx.max_degree
    divisors = [cx.boundary_divisors(k) for k in range(top + 1)] + [()]
    ranks = []
    torsion = []
    for k in range(top + 1):
        rk, rk1 = rank_over(R, divisors[k]), rank_over(R, divisors[k + 1])
        ranks.append(cx.dim_at(k) - rk - rk1)
        if R.kind == "Z":
            torsion.append(tuple(d for d in divisors[k + 1] if d > 1))
        else:
            torsion.append(())
    return GradedModule(R, tuple(ranks), tuple(torsion))


def homology_of_complex(K: SimplicialComplex, R: CoefficientRing) -> GradedModule:
    return homology_of_chain_complex(chain_complex_of(K), R)


def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** k * c for k, c in enumerate(K.counts()))


# ---------------------------------------------------------------------------
# basic constructors
# ---------------------------------------------------------------------------


def full_simplex(k: int) -> SimplicialComplex:
    if k < 0:
        raise ValueError("dimension must be >= 0")
    vs = tuple(range(k + 1))
    return SimplicialComplex.from_facets(vs, [vs])


def sphere_complex(k: int) -> SimplicialComplex:
    """Boundary of the (k+1)-simplex: the minimal k-sphere."""
    if k < 0:
        raise ValueError("dimension must be >= 0")
    vs = tuple(range(k + 2))
    return SimplicialComplex.from_facets(vs, combinations(vs, k + 1))


def polygon_complex(m: int) -> SimplicialComplex:
    """Cycle with m vertices; a subdivided circle."""
    if m < 3:
        raise ValueError("polygon needs at least 3 vertices")
    vs = tuple(range(m))
    return SimplicialComplex.from_facets(vs, [(i, (i + 1) % m) for i in range(m)])


def product_complex(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Staircase triangulation of |K| x |L|.

    Vertices are (k-vertex, l-vertex) pairs ordered lexicographically by
    rank; facets are the monotone staircase chains through products of
    maximal simplices.
    """
    vertices = tuple((u, v) for u in K.vertices for v in L.vertices)
    k_max = _maximal_simplices(K)
    l_max = _maximal_simplices(L)
    facets = []
    for s in k_max:
        for t in l_max:
            p, q = len(s) - 1, len(t) - 1
            for positions in combinations(range(p + q), p):
                i = j = 0
                chain = [(s[0], t[0])]
                for step in range(p + q):
                    if step in positions:
                        i += 1
                    else:
                        j += 1
                    chain.append((s[i], t[j]))
                facets.append(tuple(chain))
    return SimplicialComplex.from_facets(vertices, facets)


def _maximal_simplices(K: SimplicialComplex) -> list[tuple]:
    out = []
    for s in sorted(K.simplices, key=len, reverse=True):
        if not any(set(s) < set(t) for t in out):
            out.append(s)
    return out


def wedge_complexes(complexes, basepoints=None):
    """Wedge at one chosen vertex per summand.

    Returns (wedge, inclusion vertex maps).  The shared vertex is labeled
    ("w",) and comes first in the order; empty input gives a single point.
    """
    complexes = list(complexes)
    if basepoints is None:
        basepoints = [K.vertices[0] for K in complexes]
    w = ("w",)
    vertices = [w]
    maps = []
    for i, (K, bp) in enumerate(zip(complexes, basepoints)):
        if bp not in K.rank:
            raise ValueError(f"basepoint {bp} not a vertex of summand {i}")
        vmap = {v: (w if v == bp else ("s", i, v)) for v in K.vertices}
        maps.append(vmap)
        vertices.extend(vmap[v] for v in K.vertices if v != bp)
    rank = {v: i for i, v in enumerate(vertices)}
    simplices = {(w,)}
    for K, vmap in zip(complexes, maps):
        for s in K.simplices:
            simplices.add(tuple(sorted((vmap[v] for v in s), key=rank.__getitem__)))
    W = SimplicialComplex(tuple(vertices), simplices, check=False)
    return W, maps


def suspension_complex(K: SimplicialComplex, poles=(("pole", 0), ("pole", 1))):
    a, b = poles
    if a in K.rank or b in K.rank or a == b:
        raise ValueError("pole labels must be fresh and distinct")
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
    subcomplexes (sections, basepoints) survive.  Returns the sum plus the
    two vertex inclusion maps.  Any order-respecting identification of the
    boundary spheres is accepted: for the closed manifolds this package
    builds, both gluing orientations give the same homology and pairing
    invariants.

    When ``join_K`` and ``join_L`` are given, the removed facets are chosen
    through those vertices and the identification matches them, so the two
    named vertices become one vertex of the sum (labelled ``join_K``).
    """
    avoid_K, avoid_L = set(avoid_K), set(avoid_L)
    if (join_K is None) != (join_L is None):
        raise ValueError("join vertices must be supplied for both sides or neither")
    sigma = _pick_facet(K, dim, avoid_K, must=join_K)
    tau = _pick_facet(L, dim, avoid_L, must=join_L)
    if join_K is None:
        ident = dict(zip(tau, sigma))
    else:
        rest_t = [v for v in tau if v != join_L]
        rest_s = [v for v in sigma if v != join_K]
        ident = {join_L: join_K}
        ident.update(zip(rest_t, rest_s))
    kverts = set(K.vertices)
    map_L = {}
    for v in L.vertices:
        if v in ident:
            map_L[v] = ident[v]
        else:
            lab = ("s", v)
            while lab in kverts:
                lab = ("s", lab)
            kverts.add(lab)
            map_L[v] = lab
    map_K = {v: v for v in K.vertices}
    vertices = list(K.vertices) + [map_L[v] for v in L.vertices if v not in ident]
    rank = {v: i for i, v in enumerate(vertices)}
    simplices = set(K.simplices) - {sigma}
    for s in L.simplices:
        if s == tau:
            continue
        simplices.add(tuple(sorted((map_L[v] for v in s), key=rank.__getitem__)))
    G = SimplicialComplex(tuple(vertices), simplices, check=False)
    want = euler_characteristic(K) + euler_characteristic(L) - (1 + (-1) ** dim)
    got = euler_characteristic(G)
    if got != want:
        raise RuntimeError(f"connected sum Euler characteristic {got}, expected {want}")
    return G, map_K, map_L


def _pick_facet(K: SimplicialComplex, dim: int, avoid: set, must=None) -> tuple:
    for s in K.simplices_of_dim(dim):
        if must is not None and must not in s:
            continue
        if not avoid.intersection(s):
            return s
    where = " through the join vertex" if must is not None else ""
    raise ValueError(f"no dimension-{dim} facet{where} clear of the avoid set")


def mapping_cylinder(f: SimplicialMap):
    """Ordered mapping cylinder of a simplicial map.

    Domain vertices precede codomain vertices; for each domain simplex
    v0..vk the prisms are the sets {v0..vi} u f({vi..vk}).  The result
    contains disjoint full copies of domain and codomain and deformation
    retracts to the codomain; the retraction is verified by comparing
    integral homology on every call.
    """
    K, L = f.domain, f.codomain
    dlab = {v: ("d", v) for v in K.vertices}
    clab = {w: ("c", w) for w in L.vertices}
    vertices = tuple(dlab[v] for v in K.vertices) + tuple(clab[w] for w in L.vertices)
    facets = [tuple(clab[w] for w in s) for s in L.simplices]
    crank = L.rank
    for s in K.simplices:
        k = len(s) - 1
        for i in range(k + 1):
            front = tuple(dlab[v] for v in s[: i + 1])
            back_labels = sorted(
                {f.vertex_map[v] for v in s[i:]}, key=crank.__getitem__
            )
            facets.append(front + tuple(clab[w] for w in back_labels))
    C = SimplicialComplex.from_facets(vertices, facets)
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
    first).  Returns (glued, K vertex map, L vertex map).
    """
    _require_subcomplex(A, K, "A")
    _require_subcomplex(B, L, "B")
    if set(iso.keys()) != set(A.vertices) or set(iso.values()) != set(B.vertices):
        raise ValueError("iso must be a vertex bijection from A onto B")
    if len(set(iso.values())) != len(iso):
        raise ValueError("iso must be injective")
    a_images = {tuple(sorted((iso[v] for v in s), key=B.rank.__getitem__)) for s in A.simplices}
    if a_images != B.simplices:
        raise ValueError("iso does not carry A's simplices onto B's")
    inv = {b: a for a, b in iso.items()}
    map_L = {w: (inv[w] if w in inv else ("g", w)) for w in L.vertices}
    map_K = {v: v for v in K.vertices}
    b_simplices = B.simplices
    for s in L.simplices:
        if s in b_simplices:
            continue
        if all(w in inv for w in s):
            image = K.sort_simplex(inv[w] for w in s)
            if image in K.simplices:
                raise ValueError(
                    f"simplex {s} outside B collides with {image} in K; subdivide before gluing"
                )
    vertices = list(K.vertices) + [map_L[w] for w in L.vertices if w not in inv]
    rank = {v: i for i, v in enumerate(vertices)}
    simplices = set(K.simplices)
    for s in L.simplices:
        simplices.add(tuple(sorted((map_L[w] for w in s), key=rank.__getitem__)))
    G = SimplicialComplex(tuple(vertices), simplices, check=False)
    return G, map_K, map_L


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


def degree_map(l: int, d: int, anchor_preimages: int = 1) -> SimplicialMap:
    """A simplicial self-map model of the degree-d map on the l-sphere.

    Domain: an (l-1)-fold suspension of a polygon winding around the
    triangle.  Codomain: the minimal sphere.  The chain-level multiplier,
    measured against the canonical fundamental cycles, is verified to
    equal d on every call.

    ``anchor_preimages`` asks for at least that many polygon vertices over
    codomain vertex 0.  The plain winding already provides |d| of them, so
    one extra back-and-forth sheet is added exactly when |d| = 1 and two
    anchors are requested.  Suspension poles are not counted: they rank
    after the polygon vertices and cannot lead a facet.
    """
    if l < 1:
        raise ValueError("degree maps need l >= 1")
    if anchor_preimages > 2:
        raise ValueError("at most two anchor preimages are supported")
    if anchor_preimages == 2 and abs(d) == 1:
        s = 1 if d > 0 else -1
        dirs = [s, s, -s]
        m = 3 * len(dirs)
        vmap = {}
        for sheet, direction in enumerate(dirs):
            for t in range(3):
                vmap[3 * sheet + t] = t if direction > 0 else (-t) % 3
    else:
        m = 3 * max(abs(d), 1)
        vmap = {i: _winding_pattern(d, i) for i in range(m)}
    poly = polygon_complex(m)
    cod = sphere_complex(1)
    f = SimplicialMap(poly, cod, vmap)
    for step in range(l - 1):
        # send one new pole over the fresh apex, the other into the old
        # sphere: the classical cone/base decomposition of the suspension
        old_cod = f.codomain
        apex = step + 3
        new_cod = sphere_complex(step + 2)
        pa, pb = ("pole", step, 0), ("pole", step, 1)
        dom = suspension_complex(f.domain, (pa, pb))
        vmap = {v: f.vertex_map[v] for v in f.domain.vertices}
        vmap[pa] = apex
        vmap[pb] = 0
        f = SimplicialMap(dom, new_cod, vmap)
        del old_cod
    mu = measured_degree(f)
    if mu == -d and d != 0:
        f = compose_maps(f, _prefold_reflection(f.domain, m, l))
        mu = measured_degree(f)
    if mu != d:
        raise RuntimeError(f"degree map for (l={l}, d={d}) measured {mu}")
    return f


def _prefold_reflection(dom: SimplicialComplex, m: int, l: int) -> SimplicialMap:
    """Orientation-reversing automorphism: reflect the underlying polygon."""
    vmap = {}
    for v in dom.vertices:
        vmap[v] = (-v) % m if isinstance(v, int) else v
    return SimplicialMap(dom, dom, vmap)


# ---------------------------------------------------------------------------
# cup products
# ---------------------------------------------------------------------------


class _DegreeSolver:
    """Basis and coordinates for one integral cohomology degree.

    Works in a cycle splitting of the chain group: the boundary's column
    reduction gives a saturated basis of the cycle lattice and dual rows
    that read coordinates along it.  A cochain is seen through its values
    ``y`` on the basis cycles; it is a cocycle exactly when ``y`` kills the
    next boundary's columns written in the splitting, and the class basis
    ``kappa`` is a saturated basis of that kernel, with dual rows of its
    own.  The coordinate along class ``a`` is the dual row of ``kappa[a]``
    applied to ``y``, an integer dot product, checked by rebuilding ``y``.
    Only the free part of integral cohomology is seen: torsion classes
    vanish on every cycle, and the Tor classes of Z/p cohomology reduce
    from no integral cocycle.  So Z and Z/p
    cup rings of a complex with torsion are refused (see
    :func:`cup_ring_of_complex`).
    """

    def __init__(self, reps, cycle_cols, kappa, kappa_duals):
        self.reps = reps
        self._cycle_cols = cycle_cols
        self._kappa = kappa
        self._kappa_duals = kappa_duals

    @property
    def rank(self):
        return len(self.reps)

    def coordinates(self, vec):
        """Integer coordinates of a cocycle along ``reps``; raises
        ``RuntimeError`` when ``vec`` is not a cocycle."""
        y = {}
        for i, col in enumerate(self._cycle_cols):
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
            raise RuntimeError("cochain is not a cocycle: its cycle values leave the lattice")
        return coords


def _integral_solver(cx: ChainComplexZ, k: int, expected_rank: int) -> _DegreeSolver:
    """The degree-k integral solver of ``cx``, built once and cached on it.

    The rank is checked against ``expected_rank`` on every call, cached or
    not, so a caller with the wrong homology still gets an error.
    """
    solver = cx._solvers.get(k)
    if solver is None:
        solver = cx._solvers[k] = _build_integral_solver(cx, k)
    if solver.rank != expected_rank:
        raise RuntimeError(
            f"degree {k}: found {solver.rank} cohomology classes, rank {expected_rank} expected"
        )
    return solver


def _build_integral_solver(cx: ChainComplexZ, k: int) -> _DegreeSolver:
    nk = cx.dim_at(k)
    red = cx.reduction(k)
    z = len(red.kernel_cols)
    # dual rows of the splitting, indexed by chain coordinate
    by_cell: dict[int, dict[int, int]] = {}
    for i, row in enumerate(red.kernel_dual_rows):
        for t, v in row.items():
            by_cell.setdefault(t, {})[i] = v
    # columns of the next boundary, rewritten in splitting coordinates;
    # cocycles are exactly the vectors annihilating all of them
    mt_rows: list[dict[int, int]] = []
    if k + 1 <= cx.max_degree and cx.dim_at(k + 1):
        nxt = cx.boundaries[k + 1]
        dcols: list[dict[int, int]] = [dict() for _ in range(cx.dim_at(k + 1))]
        for t, row in enumerate(nxt):
            for c, v in row.items():
                dcols[c][t] = v
        for dc in dcols:
            acc: dict[int, int] = {}
            for t, v in dc.items():
                for i, w in by_cell.get(t, {}).items():
                    acc[i] = acc.get(i, 0) + v * w
            mt_rows.append({i: x for i, x in acc.items() if x})
    classes = sparse_column_reduction(mt_rows, z)
    reps = []
    for ka in classes.kernel_cols:
        vec = [0] * nk
        for i, coef in ka.items():
            for t, val in red.kernel_dual_rows[i].items():
                vec[t] += coef * val
        reps.append(vec)
    solver = _DegreeSolver(
        reps, red.kernel_cols, classes.kernel_cols, classes.kernel_dual_rows
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
        solvers[k] = _integral_solver(cx, k, rank)
        basis += [BasisElement(f"c{k}.{i + 1}", k, ("base",), False) for i in range(rank)]

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
    complex and top degree and cached on the chain complex next to the
    integral solvers it uses; the ring constructor reduces its coordinates
    into R, which is a ring isomorphism onto the free part over Q, and over
    every ring when the integral homology is torsion-free.  Torsion in
    H_{k-1} is torsion in integral H^k, and over Z/p torsion in H_k also
    adds Tor classes to H^k that no integral cocycle carries.  So over Z a
    complex with torsion below the top degree, and over Z/p one with any
    torsion through it (p-torsion or not: one rule), raises ``ValueError``.
    No field elimination exists to fill the gap: every space this package
    models is torsion-free.
    Every ring is still checked in full by ``PresentedGradedRing``.
    """
    cx = chain_complex_of(K)
    dim = cx.max_degree
    top = dim if top_degree is None else top_degree
    if top < 0:
        raise ValueError("top degree must be >= 0")
    homz = homology_of_chain_complex(cx, CoefficientRing.integers())
    if homz.rank(0) != 1:
        raise ValueError("cup rings require a connected complex")
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
    # the constructor reduces the integer coordinates into R, dropping zeros
    table = cx._products.get(reach)
    if table is None:
        table = cx._products[reach] = _cup_products(K, cx, reach, homz)
    basis, products = table
    return PresentedGradedRing(R, top, basis, products)
