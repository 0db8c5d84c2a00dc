"""Record the golden sha256 of every catalog entry's report section.

Usage (from the repository root):

    PYTHONPATH=src python3 -m involq.cli verify all --report full.json
    python3 perfbench/make_golden.py full.json

Each entry section is hashed in the bytes ``involq.pipeline.write_report``
would give it on its own (sorted keys, indent 2, trailing newline), which is
what the benchmark's operations write and compare. The sha256 of the whole
report is kept beside them, so the goldens can be traced to the report gate.
"""

import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def section_bytes(section: dict) -> bytes:
    return (json.dumps(section, sort_keys=True, indent=2) + "\n").encode("utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    raw = Path(argv[0]).read_bytes()
    report = json.loads(raw)
    golden = {
        "full_report_sha256": hashlib.sha256(raw).hexdigest(),
        "max_degree": report["max_degree"],
        "entries": {
            eid: hashlib.sha256(section_bytes(section)).hexdigest()
            for eid, section in sorted(report["entries"].items())
        },
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['entries'])} entry hashes to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
