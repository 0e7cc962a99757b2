"""Command-line surface.

Subcommands: validate, homology, ring, realize, verify, infer-manifold,
catalog.  Text reports go to standard output; ``--json PATH`` writes the
machine-readable document instead.  Exit codes: 0 success or all-match,
1 validation failure / verification mismatch / unreadable input, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .calculus import (
    cohomology_ring_of_descriptor,
    homology_of_descriptor,
    manifold_inference,
)
from .catalog import ENTRIES, plan_descriptor, random_plans
from .coefficients import CoefficientRing
from .descriptor import (
    DescriptorFormatError,
    InvalidDescriptorError,
    parse_descriptor,
    serialize_descriptor,
)
from .graded import pairing_invariants
from .oracle import TierError, format_report, verify_descriptor

class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


def _ring_from_token(token: str) -> CoefficientRing:
    if token == "Z":
        return CoefficientRing.integers()
    if token == "Q":
        return CoefficientRing.rationals()
    raise _UsageError(f"unknown ring {token!r}; choose from Z, Q, Zp")


def _resolve_rings(args) -> list[CoefficientRing]:
    labels = list(args.ring or ["Z"])
    primes = list(args.p or [])
    out = []
    for label in labels:
        if label == "Zp":
            if not primes:
                raise _UsageError(
                    "each --ring Zp needs a matching --p PRIME (in order)"
                )
            p = primes.pop(0)
            try:
                out.append(CoefficientRing.prime_field(p))
            except ValueError as exc:
                raise _UsageError(str(exc)) from None
        else:
            out.append(_ring_from_token(label))
    if primes:
        raise _UsageError(f"{len(primes)} --p value(s) without a matching --ring Zp")
    return out


def _load_descriptor(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read descriptor file {path}: {exc}") from None
    try:
        return parse_descriptor(text)
    except DescriptorFormatError as exc:
        raise _InputError(f"descriptor schema violation in {path}: {exc}") from None


def _emit(args, doc: dict, text: str) -> None:
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    else:
        print(text)


def _format_vector(ring, vec: dict) -> str:
    parts = []
    for ident, c in vec.items():
        if c == ring.one():
            parts.append(ident)
        else:
            parts.append(f"{c} {ident}")
    return " + ".join(parts) if parts else "0"


def _pairing_cells(ring_presentation, n: int):
    """All (p, q, invariants) with p <= q and a printable verdict."""
    cells = []
    for p in range(1, n):
        for q in range(p, n - p + 1):
            cells.append((p, q, pairing_invariants(ring_presentation, p, q)))
    return cells


def _show_invariants(inv) -> str:
    if inv.map_divisors is not None:
        return f"divisors {list(inv.map_divisors)}"
    return f"rank {inv.map_rank}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    try:
        d = _load_descriptor(args.descriptor)
    except InvalidDescriptorError as exc:
        doc = {"command": "validate", "ok": False, "violations": exc.violations}
        _emit(args, doc, "\n".join(f"invalid: {v}" for v in exc.violations))
        return 1
    summary = (
        f"ok: n={d.base.n}, {len(d.base.handles)} handle(s), "
        f"{len(d.records)} record(s)"
    )
    _emit(args, {"command": "validate", "ok": True}, summary)
    return 0


def _cmd_homology(args) -> int:
    d = _load_descriptor(args.descriptor)
    rings = _resolve_rings(args)
    rows = []
    lines = [f"n={d.base.n}"]
    for R in rings:
        mod = homology_of_descriptor(d, R)
        rows.append(
            {
                "ring": R.label,
                "free_ranks": list(mod.free_ranks),
                "torsion": [list(t) for t in mod.torsion],
            }
        )
        lines.append(f"{R.label}: {mod.free_ranks}")
        for k, t in enumerate(mod.torsion):
            if t:
                lines.append(f"  torsion at degree {k}: {tuple(t)}")
    _emit(args, {"command": "homology", "n": d.base.n, "rings": rows}, "\n".join(lines))
    return 0


def _cmd_ring(args) -> int:
    d = _load_descriptor(args.descriptor)
    rings = _resolve_rings(args)
    n = d.base.n
    blocks = []
    lines = []
    for R in rings:
        rep = cohomology_ring_of_descriptor(d, R)
        A = rep.ring
        lines.append(f"ring over {R.label}  (top degree {A.top_degree})")
        lines.append(f"  free ranks: {A.free_ranks()}")
        for k in range(1, A.top_degree + 1):
            ids = [e.id for e in A.degree_basis(k)]
            if ids:
                lines.append(f"  degree {k}: {', '.join(ids)}")
        products = []
        for (a, b), vec in sorted(A.products.items()):
            shown = _format_vector(R, vec)
            if shown != "0":
                products.append({"a": a, "b": b, "value": shown})
                lines.append(f"  {a} * {b} = {shown}")
        if not products:
            lines.append("  all positive products vanish")
        pair_rows = []
        for p, q, inv in _pairing_cells(A, n):
            pair_rows.append(
                {
                    "p": p,
                    "q": q,
                    "map_rank": inv.map_rank,
                    "map_divisors": (
                        list(inv.map_divisors)
                        if inv.map_divisors is not None
                        else None
                    ),
                }
            )
            lines.append(f"  pairing ({p},{q}): {_show_invariants(inv)}")
        blocks.append(
            {
                "ring": R.label,
                "free_ranks": list(A.free_ranks()),
                "basis": [{"id": e.id, "degree": e.degree} for e in A.basis],
                "products": products,
                "pairings": pair_rows,
            }
        )
    _emit(args, {"command": "ring", "n": n, "rings": blocks}, "\n".join(lines))
    return 0


def _cmd_realize(args) -> int:
    try:
        with open(args.plan, encoding="utf-8") as fh:
            plan = json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read plan file {args.plan}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _InputError(f"plan file {args.plan} is not JSON: {exc}") from None
    try:
        d = plan_descriptor(plan)
    except (KeyError, TypeError) as exc:
        raise _InputError(f"plan document missing or malformed field: {exc}") from None
    text = serialize_descriptor(d)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_verify(args) -> int:
    d = _load_descriptor(args.descriptor)
    rings = _resolve_rings(args)
    report = verify_descriptor(d, rings, tier=args.tier)
    lines = [format_report(report)]
    if report.tier == 2 and report.ok:
        n = d.base.n
        # the verify's checked integral ring; each ring's pairings come off its divisors
        cells = {}
        for R in rings:
            for p, q, inv in _pairing_cells(report.formula.reduced(R), n):
                cells.setdefault((p, q), []).append((R.label, inv))
        shown = False
        for (p, q), per_ring in sorted(cells.items()):
            if all(inv.map_rank == 0 for _, inv in per_ring):
                continue
            shown = True
            for label, inv in per_ring:
                lines.append(
                    f"  pairing ({p},{q}) over {label}: {_show_invariants(inv)}"
                )
        if not shown:
            lines.append("  all positive pairings vanish")
    _emit(args, report.to_json(), "\n".join(lines))
    return 0 if report.ok else 1


def _cmd_infer(args) -> int:
    d = _load_descriptor(args.descriptor)
    rings = _resolve_rings(args)
    if len(rings) != 1:
        raise _UsageError("infer-manifold takes exactly one coefficient ring")
    rep = manifold_inference(d, args.m, rings[0])
    doc = {
        "command": "infer-manifold",
        "source_dimension": rep.source_dimension,
        "ring": rep.ring_label,
        "qualifies": rep.qualifies,
        "assumption": rep.assumption,
        "iso_range": rep.iso_range,
        "truncated_free_ranks": list(rep.truncated.free_ranks()),
        "total_rank_doubling": rep.total_rank_doubling,
        "homotopy_note": rep.homotopy_note,
    }
    lines = [
        f"source dimension {rep.source_dimension} over {rep.ring_label}",
        f"qualifies: {'yes' if rep.qualifies else 'no'}",
        f"assumption: {rep.assumption}",
        f"isomorphism range: degrees <= {rep.iso_range}",
        f"truncated ring ranks: {rep.truncated.free_ranks()}",
    ]
    if rep.total_rank_doubling is not None and rep.qualifies:
        lines.append(f"total rank of the source: {rep.total_rank_doubling}")
    lines.append(rep.homotopy_note)
    _emit(args, doc, "\n".join(lines))
    return 0


def _cmd_catalog(args) -> int:
    rings = [
        CoefficientRing.integers(),
        CoefficientRing.rationals(),
        CoefficientRing.prime_field(2),
        CoefficientRing.prime_field(3),
    ]
    jobs = [(e.name, e.descriptor, "auto") for e in ENTRIES]
    for i, plan in enumerate(random_plans(args.seed, 6), start=1):
        jobs.append((f"plan-{i}", plan_descriptor(plan), 1))
    if args.only:
        jobs = [j for j in jobs if args.only in j[0]]
        if not jobs:
            raise _UsageError(f"--only {args.only!r} matches no catalog instance")
    rows = []
    lines = []
    all_ok = True
    for name, d, tier in jobs:
        t0 = time.perf_counter()
        rep = verify_descriptor(d, rings, tier=tier)
        dt = time.perf_counter() - t0
        all_ok &= rep.ok
        rows.append(
            {
                "name": name,
                "tier": rep.tier,
                "ok": rep.ok,
                "seconds": round(dt, 3),
                "witnesses": [
                    w for v in rep.verdicts for w in v.witnesses
                ],
            }
        )
        lines.append(
            f"{'ok      ' if rep.ok else 'MISMATCH'} {name} "
            f"(tier {rep.tier}, {dt:.2f}s)"
        )
        if not rep.ok:
            lines.append(format_report(rep))
    lines.append(
        f"{len(jobs)} instance(s), "
        f"{'all match' if all_ok else 'MISMATCHES PRESENT'}"
    )
    doc = {
        "command": "catalog",
        "seed": args.seed,
        "ok": all_ok,
        "instances": rows,
    }
    _emit(args, doc, "\n".join(lines))
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_descriptor_flag(sub):
    sub.add_argument(
        "-d", "--descriptor", required=True, help="path to a descriptor JSON file"
    )


def _add_ring_flags(sub):
    sub.add_argument(
        "--ring",
        action="append",
        choices=["Z", "Q", "Zp"],
        help="coefficient ring (repeatable; default Z)",
    )
    sub.add_argument(
        "--p",
        action="append",
        type=int,
        help="prime for the matching --ring Zp, in order",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reeb-bubble",
        description=(
            "Homology and cohomology rings of Reeb spaces built by iterated "
            "bubbling surgery, with independent verification."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("validate", help="check a descriptor file")
    _add_descriptor_flag(sub)
    sub.add_argument("--json", help="write the JSON report to this path")
    sub.set_defaults(fn=_cmd_validate)

    sub = subs.add_parser("homology", help="homology table of the quotient space")
    _add_descriptor_flag(sub)
    _add_ring_flags(sub)
    sub.add_argument("--json", help="write the JSON report to this path")
    sub.set_defaults(fn=_cmd_homology)

    sub = subs.add_parser("ring", help="cup-product presentation and pairings")
    _add_descriptor_flag(sub)
    _add_ring_flags(sub)
    sub.add_argument("--json", help="write the JSON report to this path")
    sub.set_defaults(fn=_cmd_ring)

    sub = subs.add_parser("realize", help="turn a plan document into a descriptor")
    sub.add_argument("--plan", required=True, help="path to a plan JSON file")
    sub.add_argument("-o", "--out", help="write the descriptor here (default stdout)")
    sub.set_defaults(fn=_cmd_realize)

    sub = subs.add_parser("verify", help="cross-check formulas against the oracles")
    _add_descriptor_flag(sub)
    _add_ring_flags(sub)
    sub.add_argument(
        "--tier", choices=["auto", "1", "2"], default="auto",
        help="verification tier (default auto)",
    )
    sub.add_argument("--json", help="write the JSON report to this path")
    sub.set_defaults(fn=_cmd_verify)

    sub = subs.add_parser(
        "infer-manifold", help="transfer invariants to the source manifold"
    )
    _add_descriptor_flag(sub)
    _add_ring_flags(sub)
    sub.add_argument(
        "-m", type=int, required=True, help="dimension of the source manifold"
    )
    sub.add_argument("--json", help="write the JSON report to this path")
    sub.set_defaults(fn=_cmd_infer)

    sub = subs.add_parser("catalog", help="verify every built-in instance")
    sub.add_argument(
        "--seed", type=int, default=0,
        help="seed for the randomized planner instances (default 0)",
    )
    sub.add_argument("--only", help="run only instances whose name contains this")
    sub.add_argument("--json", help="write the JSON report to this path")
    sub.set_defaults(fn=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _InputError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except TierError as exc:
        print(f"tier error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
