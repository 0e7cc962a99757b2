"""The ``ring`` command's JSON report for every catalog instance, against a
golden file.

    python tests/ring_catalog.py            # compare; exits 1 on a difference
    python tests/ring_catalog.py --write    # rewrite tests/data/ring_catalog.json

Each instance of ``catalog.ENTRIES`` is written to a descriptor file and
handed to the installed ``reeb-bubble ring`` console script over Z, Q, Z/2
and Z/3.  The report lists every basis id, product and pairing, so a
renamed class or a changed structure constant shows as a difference.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from reeb_bubble.catalog import ENTRIES
from reeb_bubble.descriptor import serialize_descriptor

GOLDEN = Path(__file__).resolve().parent / "data" / "ring_catalog.json"
RING_FLAGS = ("--ring", "Z", "--ring", "Q", "--ring", "Zp", "--p", "2", "--ring", "Zp", "--p", "3")


def ring_reports() -> dict:
    """Instance name -> the JSON report of ``reeb-bubble ring``."""
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        descriptor, report = Path(tmp) / "descriptor.json", Path(tmp) / "ring.json"
        for entry in ENTRIES:
            descriptor.write_text(serialize_descriptor(entry.descriptor), encoding="utf-8")
            subprocess.run(
                ["reeb-bubble", "ring", "-d", str(descriptor), *RING_FLAGS, "--json", str(report)],
                check=True,
            )
            reports[entry.name] = json.loads(report.read_text(encoding="utf-8"))
    return reports


def main(argv: list[str]) -> int:
    reports = ring_reports()
    if argv == ["--write"]:
        GOLDEN.write_text(json.dumps(reports, indent=1) + "\n", encoding="utf-8")
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    differ = sorted(name for name in golden.keys() | reports.keys() if golden.get(name) != reports.get(name))
    for name in differ:
        print(f"ring report differs from {GOLDEN.name}: {name}")
    print(f"{len(golden.keys() | reports.keys()) - len(differ)}/{len(golden)} ring reports unchanged")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
