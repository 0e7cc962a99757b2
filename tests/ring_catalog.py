"""The ``ring`` command's JSON report for every catalog instance and for the
generators' pools, against two golden files.

    python tests/ring_catalog.py            # compare; exits 1 on a difference
    python tests/ring_catalog.py --write    # rewrite both golden files

Each descriptor is written to a file and handed to ``reeb-bubble ring``
over Z, Q, Z/2 and Z/3, run in-process through :func:`reeb_bubble.cli.main`.
The report lists every basis id, product and pairing, so a renamed class or
a changed structure constant shows as a difference.  ``ring_catalog.json``
holds the report of each instance of ``catalog.ENTRIES``;
``ring_pools.json`` holds the sha256 of the report file of each descriptor
of ``random_plans(0, 80)`` and ``random_descriptors(0, 160)``, so a report
must stay byte-identical.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from reeb_bubble.catalog import ENTRIES, plan_descriptor, random_descriptors, random_plans
from reeb_bubble.cli import main as reeb_bubble
from reeb_bubble.descriptor import serialize_descriptor

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "ring_catalog.json"
POOLS = DATA / "ring_pools.json"
RING_FLAGS = ("--ring", "Z", "--ring", "Q", "--ring", "Zp", "--p", "2", "--ring", "Zp", "--p", "3")


def ring_report_files(named) -> dict:
    """Name -> the bytes of the ``ring --json`` report of each (name, descriptor)."""
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        descriptor, report = Path(tmp) / "descriptor.json", Path(tmp) / "ring.json"
        for name, d in named:
            descriptor.write_text(serialize_descriptor(d), encoding="utf-8")
            code = reeb_bubble(["ring", "-d", str(descriptor), *RING_FLAGS, "--json", str(report)])
            if code:
                raise RuntimeError(f"reeb-bubble ring exited {code} on {name}")
            reports[name] = report.read_bytes()
    return reports


def ring_reports() -> dict:
    """Instance name -> the JSON report of ``reeb-bubble ring``."""
    files = ring_report_files((e.name, e.descriptor) for e in ENTRIES)
    return {name: json.loads(text) for name, text in files.items()}


def pool_digests() -> dict:
    """``plan <i>`` and ``descriptor <i>`` -> the sha256 of the pool entry's report."""
    named = [(f"plan {i}", plan_descriptor(p)) for i, p in enumerate(random_plans(0, 80))]
    named += [(f"descriptor {i}", d) for i, d in enumerate(random_descriptors(0, 160))]
    return {name: hashlib.sha256(text).hexdigest() for name, text in ring_report_files(named).items()}


def compare(path: Path, found: dict) -> int:
    """Print the entries that differ from the golden file; return their count."""
    golden = json.loads(path.read_text(encoding="utf-8"))
    differ = sorted(name for name in golden.keys() | found.keys() if golden.get(name) != found.get(name))
    for name in differ:
        print(f"ring report differs from {path.name}: {name}")
    print(f"{len(golden.keys() | found.keys()) - len(differ)}/{len(golden)} ring reports unchanged ({path.name})")
    return len(differ)


def main(argv: list[str]) -> int:
    reports, digests = ring_reports(), pool_digests()
    if argv == ["--write"]:
        GOLDEN.write_text(json.dumps(reports, indent=1) + "\n", encoding="utf-8")
        POOLS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
        return 0
    return 1 if compare(GOLDEN, reports) + compare(POOLS, digests) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
