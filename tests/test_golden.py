"""Golden report gate, fast enough for every run.

The report of ``involq verify all --max-degree 31`` is pinned by its sha256,
and each of its entry sections must hash to the value recorded for that
entry in ``perfbench/golden.json`` (made from the full default-catalog
report). A change to the report bytes fails here before the slow full-catalog
check (acceptance criterion 8) runs.
"""

import hashlib
import json
from pathlib import Path

from involq.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)
DEGREE_31_REPORT_SHA256 = "1b644784b537c73d526cfabd1b604820269aa768ca66e73300cdd1418d17f67d"


def test_degree_31_report_is_golden(tmp_path):
    path = tmp_path / "report.json"
    assert main(["verify", "all", "--max-degree", "31", "--report", str(path), "--quiet"]) == 0
    raw = path.read_bytes()
    assert len(raw) == 106740
    assert hashlib.sha256(raw).hexdigest() == DEGREE_31_REPORT_SHA256
    entries = json.loads(raw)["entries"]
    assert len(entries) == 17
    for eid, section in entries.items():
        section_bytes = (json.dumps(section, sort_keys=True, indent=2) + "\n").encode()
        assert hashlib.sha256(section_bytes).hexdigest() == GOLDEN["entries"][eid], eid
