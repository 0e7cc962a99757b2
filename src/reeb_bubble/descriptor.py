"""Combinatorial descriptors: a base space plus a schedule of surgery records.

A descriptor names an n-dimensional quotient space built from a boundary
connected sum of (core x disc) pieces, then modified by an ordered list of
records.  Each record attaches along a bouquet of spheres whose classes are
integer combinations of the base's sphere classes.  Descriptors are
immutable values with a JSON wire format, and valid by construction: a
descriptor that breaks a rule of :func:`validate` raises
:class:`InvalidDescriptorError` when it is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .coefficients import CoefficientRing, is_int
from .graded import (
    ConnSum,
    ManifoldExpr,
    PresentedGradedRing,
    Product,
    Sphere,
    dimension,
    gcps_cohomology,
    validate_expr,
)

__all__ = [
    "RecordKind",
    "BaseSpec",
    "SphereSpec",
    "BubblingRecord",
    "ReebDescriptor",
    "DescriptorFormatError",
    "InvalidDescriptorError",
    "validate",
    "base_classes",
    "base_sphere_classes",
    "base_cohomology",
    "parse_descriptor",
    "serialize_descriptor",
]


class RecordKind(str, Enum):
    M = "M"
    S = "S"
    NORMAL_M = "normal-M"
    NORMAL_S = "normal-S"
    POINT = "point"

    @property
    def is_normal(self) -> bool:
        return self in (RecordKind.NORMAL_M, RecordKind.NORMAL_S)

    @property
    def is_point(self) -> bool:
        return self is RecordKind.POINT


def _nu_index(ident: str) -> int:
    if not ident.startswith("nu"):
        raise ValueError(f"coefficient key {ident!r} is not a nu<j> id")
    tail = ident[2:]
    if not tail.isdigit() or tail != str(int(tail)) or int(tail) < 1:
        raise ValueError(f"coefficient key {ident!r} is not a nu<j> id")
    return int(tail)


@dataclass(frozen=True)
class BaseSpec:
    n: int
    handles: tuple[ManifoldExpr, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "handles", tuple(self.handles))


@dataclass(frozen=True)
class SphereSpec:
    """One sphere of the attaching bouquet.

    dim 0 marks a point generator and carries no coefficients; otherwise
    ``coefficients`` maps base class ids "nu<j>" to integers.  A dimension
    or coefficient that is not an exact integer raises ``ValueError``.
    """

    dim: int
    coefficients: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if not is_int(self.dim):
            raise ValueError(f"dim: expected an integer, got {self.dim!r}")
        coeffs = self.coefficients
        if isinstance(coeffs, dict):
            coeffs = tuple(coeffs.items())
        for k, v in coeffs:
            if not is_int(v):
                raise ValueError(f"coefficient {k}: expected an integer, got {v!r}")
        pairs = tuple(sorted(((str(k), v) for k, v in coeffs), key=lambda kv: _nu_index(kv[0])))
        seen = set()
        for k, _ in pairs:
            if k in seen:
                raise ValueError(f"duplicate coefficient key {k}")
            seen.add(k)
        object.__setattr__(self, "coefficients", pairs)


@dataclass(frozen=True)
class BubblingRecord:
    kind: RecordKind
    spheres: tuple[SphereSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "kind", RecordKind(self.kind))
        object.__setattr__(self, "spheres", tuple(self.spheres))


class InvalidDescriptorError(ValueError):
    """A descriptor broke rules of :func:`validate`; ``violations`` lists all."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid descriptor: " + "; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class ReebDescriptor:
    """A base and a record schedule, validated once, when built."""

    base: BaseSpec
    records: tuple[BubblingRecord, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        violations = validate(self)
        if violations:
            raise InvalidDescriptorError(violations)

    @property
    def n(self) -> int:
        return self.base.n


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(d: ReebDescriptor) -> list[str]:
    """Collect every violation; an empty list means the descriptor is valid.

    Every :class:`ReebDescriptor` runs this when built.  A non-integer n is
    reported alone: every other rule is stated relative to n.
    """
    n = d.base.n
    if not is_int(n):
        return [f"base.n: expected an integer, got {n!r}"]
    out: list[str] = []
    if n < 2:
        out.append(f"base.n: must be >= 2, got {n}")
    for i, h in enumerate(d.base.handles):
        where = f"base.handles[{i}]"
        try:
            validate_expr(h)
        except (ValueError, TypeError) as exc:
            out.append(f"{where}: {exc}")
            continue
        k = dimension(h)
        if not 1 <= k <= n - 1:
            out.append(f"{where}: core dimension {k} outside 1..{n - 1}")

    classes = None if out else dict(base_sphere_classes(d))
    for r, rec in enumerate(d.records):
        rwhere = f"records[{r}]"
        if rec.kind.is_point:
            if rec.spheres:
                out.append(f"{rwhere}: point record must have no spheres")
            continue
        if rec.kind.is_normal and len(rec.spheres) != 1:
            out.append(
                f"{rwhere}: normal record needs exactly one sphere, got {len(rec.spheres)}"
            )
        for s, sph in enumerate(rec.spheres):
            swhere = f"{rwhere}.spheres[{s}]"
            if sph.dim == 0:
                if sph.coefficients:
                    out.append(f"{swhere}: dim-0 sphere cannot carry coefficients")
                continue
            if sph.dim < 0:
                out.append(f"{swhere}: negative dimension {sph.dim}")
                continue
            if sph.dim > n - 2:
                out.append(f"{swhere}: dim {sph.dim} > n-2 = {n - 2}")
            for ident, _ in sph.coefficients:
                if classes is None:
                    continue
                if ident not in classes:
                    out.append(f"{swhere}: unknown coefficient target {ident}")
                elif classes[ident] != sph.dim:
                    out.append(
                        f"{swhere}: target {ident} has degree {classes[ident]}, sphere has dim {sph.dim}"
                    )
    return out


# ---------------------------------------------------------------------------
# base classes
# ---------------------------------------------------------------------------


def _walk(e: ManifoldExpr) -> list[tuple[int, bool]]:
    # (degree, is a sphere class) per class, in the basis order of graded's
    # ring constructors: a product lists its factors' classes, then their
    # cross products; a connected sum its factors' classes below the top,
    # which it identifies into the fundamental class
    if isinstance(e, Sphere):
        return [(e.k, True)]
    left, right = _walk(e.left), _walk(e.right)
    if isinstance(e, Product):
        return left + right + [(a + b, False) for a, _ in left for b, _ in right]
    top = dimension(e)
    return [c for c in left + right if c[0] < top] + [(top, False)]


def base_classes(base: BaseSpec) -> list[tuple[str, int]]:
    """Every positive-degree class of the base wedge, as (id, degree).

    Read off the handle expressions in wedge order, no ring built; an
    invalid handle raises as in ``graded.validate_expr``.  Sphere classes,
    which records may target, are named nu1, nu2, ...; the other class at
    position i of the wedge, counted from 1, is named e<i>.
    """
    out = []
    spheres = 0
    for h in base.handles:
        validate_expr(h)
        for degree, sphere in _walk(h):
            if sphere:
                spheres += 1
                out.append((f"nu{spheres}", degree))
            else:
                out.append((f"e{len(out) + 1}", degree))
    return out


def base_sphere_classes(d: ReebDescriptor) -> list[tuple[str, int]]:
    """The coefficient-targetable classes of the base, as (id, degree):
    the nu<j> classes of :func:`base_classes`."""
    return [(ident, k) for ident, k in base_classes(d.base) if ident.startswith("nu")]


def base_cohomology(base: BaseSpec, R: CoefficientRing) -> PresentedGradedRing:
    """Cohomology ring of the wedge of the cores, ids by :func:`base_classes`.

    The base space deformation-retracts to this wedge, so its positive
    cohomology is the direct sum of the cores' with vanishing cross
    products.  ``gcps_cohomology`` builds and checks it in one pass, naming
    each class as the walk does, from the ring constructors' own listing;
    an id or degree that differs from the walk's raises ``RuntimeError``.
    """
    ring = gcps_cohomology(base.handles, R)
    if [(e.id, e.degree) for e in ring.basis] != base_classes(base):
        raise RuntimeError("base classes out of sync with the base ring")
    return ring


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


class DescriptorFormatError(ValueError):
    """Raised on schema violations, carrying a JSON-path diagnostic."""


def _fail(path: str, message: str):
    raise DescriptorFormatError(f"{path}: {message}")


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str):
    for key in obj:
        if key not in allowed:
            _fail(path, f"unknown field {key!r}")
    for key in required:
        if key not in obj:
            _fail(path, f"missing field {key!r}")


def _as_int(value, path: str) -> int:
    if not is_int(value):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _expr_from_obj(obj, path: str) -> ManifoldExpr:
    if not isinstance(obj, dict) or len(obj) != 1:
        _fail(path, "manifold expression must be a single-key object")
    (key, value), = obj.items()
    if key == "sphere":
        return Sphere(_as_int(value, f"{path}.sphere"))
    if key in ("product", "connsum"):
        if not isinstance(value, list) or len(value) != 2:
            _fail(path, f"{key} needs a two-element list")
        left = _expr_from_obj(value[0], f"{path}.{key}[0]")
        right = _expr_from_obj(value[1], f"{path}.{key}[1]")
        return Product(left, right) if key == "product" else ConnSum(left, right)
    _fail(path, f"unknown expression kind {key!r}")


def _expr_to_obj(e: ManifoldExpr):
    if isinstance(e, Sphere):
        return {"sphere": e.k}
    if isinstance(e, Product):
        return {"product": [_expr_to_obj(e.left), _expr_to_obj(e.right)]}
    if isinstance(e, ConnSum):
        return {"connsum": [_expr_to_obj(e.left), _expr_to_obj(e.right)]}
    raise TypeError(f"not a manifold expression: {e!r}")


def parse_descriptor(text: str) -> ReebDescriptor:
    """Read a descriptor document: :class:`DescriptorFormatError` if it
    breaks the schema, :class:`InvalidDescriptorError` if a rule."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorFormatError(f"document: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        _fail("document", "top level must be an object")
    _check_keys(obj, {"n", "base", "records"}, {"n", "base", "records"}, "document")
    n = _as_int(obj["n"], "n")

    base_obj = obj["base"]
    if not isinstance(base_obj, dict):
        _fail("base", "must be an object")
    _check_keys(base_obj, {"handles"}, {"handles"}, "base")
    if not isinstance(base_obj["handles"], list):
        _fail("base.handles", "must be a list")
    handles = tuple(
        _expr_from_obj(h, f"base.handles[{i}]")
        for i, h in enumerate(base_obj["handles"])
    )

    records_obj = obj["records"]
    if not isinstance(records_obj, list):
        _fail("records", "must be a list")
    records = []
    for r, rec_obj in enumerate(records_obj):
        rpath = f"records[{r}]"
        if not isinstance(rec_obj, dict):
            _fail(rpath, "must be an object")
        _check_keys(rec_obj, {"kind", "spheres"}, {"kind"}, rpath)
        kind_raw = rec_obj["kind"]
        try:
            kind = RecordKind(kind_raw)
        except ValueError:
            _fail(f"{rpath}.kind", f"unknown kind {kind_raw!r}")
        spheres_obj = rec_obj.get("spheres", [])
        if not isinstance(spheres_obj, list):
            _fail(f"{rpath}.spheres", "must be a list")
        spheres = []
        for s, sph_obj in enumerate(spheres_obj):
            spath = f"{rpath}.spheres[{s}]"
            if not isinstance(sph_obj, dict):
                _fail(spath, "must be an object")
            _check_keys(sph_obj, {"dim", "coefficients"}, {"dim"}, spath)
            dim = _as_int(sph_obj["dim"], f"{spath}.dim")
            coeff_obj = sph_obj.get("coefficients", {})
            if not isinstance(coeff_obj, dict):
                _fail(f"{spath}.coefficients", "must be an object")
            coeffs = []
            for key, value in coeff_obj.items():
                cpath = f"{spath}.coefficients.{key}"
                try:
                    _nu_index(key)
                except ValueError as exc:
                    _fail(cpath, str(exc))
                coeffs.append((key, _as_int(value, cpath)))
            spheres.append(SphereSpec(dim, tuple(coeffs)))
        records.append(BubblingRecord(kind, tuple(spheres)))
    return ReebDescriptor(BaseSpec(n, handles), tuple(records))


def serialize_descriptor(d: ReebDescriptor) -> str:
    obj = {
        "n": d.base.n,
        "base": {"handles": [_expr_to_obj(h) for h in d.base.handles]},
        "records": [
            {
                "kind": rec.kind.value,
                "spheres": [
                    {"dim": s.dim, "coefficients": dict(s.coefficients)}
                    for s in rec.spheres
                ],
            }
            for rec in d.records
        ],
    }
    return json.dumps(obj, indent=2) + "\n"
