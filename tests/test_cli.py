"""Catalog contents, pipeline wiring, CLI subcommands and exit codes."""

import dataclasses
import json
import subprocess
import sys

import pytest

from involq import geometry as geometry_mod
from involq import s2t
from involq.catalog import CatalogEntry, build_entry, find_entry, run_catalog
from involq.cli import main
from involq.config import max_group_order
from involq.errors import (CharacterizationMismatch, CharacteristicAnomaly, CharacteristicTwo,
                           InvolqError)
from involq.pipeline import census_target, recover_target, run_verify, verify_group
from involq.reporting import Check, CheckReport


def test_catalog_degree_9():
    ids = [e.id for e in run_catalog(9)]
    assert ids == sorted(ids)
    assert set(ids) == {
        "agl-field-3", "agl-field-4", "agl-field-5", "agl-field-7",
        "agl-field-9", "agl-dickson-3-2", "sym4-fixture",
    }


def test_catalog_degree_3():
    ids = [e.id for e in run_catalog(3)]
    assert ids == ["agl-field-3"]


def test_catalog_degree_121_contents():
    entries = {e.id: e for e in run_catalog(121)}
    for q in (11, 13, 25, 27, 49, 81, 121):
        assert f"agl-field-{q}" in entries
    for q, n in [(3, 2), (5, 2), (7, 2), (9, 2), (11, 2)]:
        assert f"agl-dickson-{q}-{n}" in entries
    assert "agl-dickson-3-4" not in entries  # (3,4) is not a valid pair
    assert all(e.degree <= 121 for e in entries.values())


def test_catalog_ids_unique_and_params_valid():
    entries = run_catalog(121)
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids))
    for e in entries:
        G = None
        if e.degree <= 9:  # keep the test quick; larger entries build elsewhere
            G = build_entry(e)
            assert G.degree == e.degree


def test_build_entry_refuses_an_unknown_family():
    """An entry of no family build_entry knows, and not the sym4 fixture, is
    refused by name."""
    entry = CatalogEntry(id="agl-mystery-5", family="agl-mystery", params=(5,), degree=5,
                         expected_certified=True, expected_split=True,
                         expected_characteristic=5)
    with pytest.raises(InvolqError, match="^cannot build entry agl-mystery-5$"):
        build_entry(entry)


def test_run_verify_positive(tmp_path):
    report_path = tmp_path / "r.json"
    assert run_verify("agl-field-5", str(report_path), quiet=True) == 0
    report = json.loads(report_path.read_text())
    assert report["ok"] is True
    assert all(
        sec["status"] == "pass" for sec in report["sections"].values()
    )


def test_run_verify_negative_fixture(tmp_path):
    report_path = tmp_path / "r.json"
    assert run_verify("sym4-fixture", str(report_path), quiet=True) == 1
    report = json.loads(report_path.read_text())
    assert report["ok"] is False
    cert = report["sections"]["certificate"]
    assert cert["status"] == "fail"
    assert cert["failure"] == {"check": "order", "expected": 12, "actual": 24}
    assert report["conforms"] is True  # designed to fail


def test_run_verify_char2_skips(tmp_path):
    report_path = tmp_path / "r.json"
    assert run_verify("agl-field-4", str(report_path), quiet=True) == 0
    report = json.loads(report_path.read_text())
    skipped = [
        name for name, sec in report["sections"].items()
        if sec["status"] == "skipped: characteristic two"
    ]
    assert set(skipped) == {
        "basic_properties", "geometry_conditions", "geometry", "line_lemma",
        "no_proper_plane", "divisible_subgroups", "census", "xalpha_covering",
    }
    assert report["sections"]["splitting"]["status"] == "pass"
    assert report["sections"]["roundtrip"]["status"] == "pass"


def test_run_verify_unknown_target():
    assert run_verify("nonexistent", quiet=True) == 2


def test_run_verify_group_document(tmp_path):
    doc = tmp_path / "g.json"
    doc.write_text('{"degree": 5, "generators": [[1,2,3,4,0],[0,2,4,1,3]]}')
    assert run_verify(str(doc), quiet=True) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"degree": 3, "generators": [[0,0,1]]}')
    assert run_verify(str(bad), quiet=True) == 2


def test_cli_verify_malformed_documents_are_input_errors(tmp_path, capsys):
    for k, text in enumerate([
        '{"degree": 3, "generators": [[1, 2, 0.5], [1, 0, 2]]}',  # float image
        '{"degree": 1, "generators": [[0]]}',                     # degree below 2
        '{"degree": true, "generators": [[0]]}',                  # bool degree
    ]):
        doc = tmp_path / f"bad{k}.json"
        doc.write_text(text)
        assert main(["verify", str(doc)]) == 2
        assert "input error:" in capsys.readouterr().err
        assert main(["verify", str(doc), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert "input error:" in captured.err and captured.out == ""


def test_cli_verify_refuses_a_degree_above_the_order_cap(tmp_path, capsys):
    """A 40-byte document of degree cap + 1 is a verification failure, refused
    before any permutation or pair mask is built."""
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({"degree": max_group_order() + 1, "generators": []}))
    assert main(["verify", str(doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "recover", "census"])
def test_cli_document_not_utf8_is_an_input_error(command, tmp_path, capsys):
    """A document whose bytes are not UTF-8 (here a UTF-16 byte-order mark)
    is refused as malformed, not left to raise UnicodeDecodeError."""
    doc = tmp_path / "d.json"
    doc.write_bytes(b"\xff\xfe")
    assert main([command, str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: document is not UTF-8")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["catalog"], ["verify"], ["verify", "agl-field-3"], ["recover", "agl-field-3"],
    ["census", "agl-field-3"],
])
def test_cli_max_degree_below_3_is_an_input_error(argv, capsys):
    assert main(argv + ["--max-degree", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:") and captured.out == ""


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_cli_malformed_order_cap_is_an_input_error(raw, monkeypatch, capsys):
    monkeypatch.setenv("INVOLQ_ORDER_CAP", raw)
    assert main(["verify", "agl-field-3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: INVOLQ_ORDER_CAP") and captured.out == ""


def test_cli_verify_all_with_a_malformed_order_cap_is_an_input_error(monkeypatch, capsys):
    """The batch reads the cap when it builds its first entry, and re-raises
    the input error rather than recording a failed entry."""
    monkeypatch.setenv("INVOLQ_ORDER_CAP", "abc")
    assert main(["verify", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: INVOLQ_ORDER_CAP") and captured.out == ""


def test_failed_entry_build_is_recorded_and_the_batch_goes_on(monkeypatch, tmp_path):
    monkeypatch.setenv("INVOLQ_ORDER_CAP", "20")
    report_path = tmp_path / "all.json"
    assert run_verify("all", str(report_path), max_degree=9, quiet=True) == 1
    batch = json.loads(report_path.read_text())
    assert set(batch["entries"]) == {e.id for e in run_catalog(9)}
    assert batch["ok"] is False
    assert batch["entries"]["agl-field-7"] == {
        "entry": find_entry("agl-field-7").as_dict(),
        "conforms": False,
        "ok": False,
        "error": "OrderCapExceeded: group order 42 exceeds cap 20",
    }
    built = {name for name, rec in batch["entries"].items() if "error" not in rec}
    assert built == {"agl-field-3", "agl-field-4", "agl-field-5"}
    assert all(batch["entries"][name]["conforms"] for name in built)


# ---------------------------------------------------------------------------
# the stage runner: skip inheritance and fault isolation

GEOMETRY_DEPENDENTS = ("line_lemma", "no_proper_plane", "divisible_subgroups", "xalpha_covering")


def test_raising_stage_fails_alone_and_its_dependents_skip(agl_f5, monkeypatch, tmp_path):
    def broken(G, conditions=None):
        raise CharacterizationMismatch("line characterizations disagree")

    monkeypatch.setattr(geometry_mod, "build_geometry", broken)
    report = verify_group(agl_f5, find_entry("agl-field-5"))
    sections = report["sections"]
    assert sections["geometry"] == {
        "status": "fail",
        "error": "CharacterizationMismatch: line characterizations disagree",
    }
    for name in GEOMETRY_DEPENDENTS:
        assert sections[name] == {"status": "skipped: no geometry"}
    for name in ("certificate", "basic_properties", "geometry_conditions",
                 "splitting", "coordinatization", "roundtrip", "census"):
        assert sections[name]["status"] == "pass"
    assert report["ok"] is False and report["conforms"] is False

    report_path = tmp_path / "all.json"
    assert run_verify("all", str(report_path), max_degree=9, quiet=True) == 1
    batch = json.loads(report_path.read_text())
    assert set(batch["entries"]) == {e.id for e in run_catalog(9)}
    assert batch["ok"] is False
    assert batch["entries"]["agl-field-3"]["sections"]["geometry"]["status"] == "fail"
    assert batch["entries"]["sym4-fixture"]["conforms"] is True  # never reaches geometry


def test_failed_geometry_conditions_pin_every_inherited_skip(agl_f5, monkeypatch):
    def failing(G):
        return CheckReport("geometry conditions", [Check("(a)", False, witness=(1, 2))])

    monkeypatch.setattr(geometry_mod, "check_geometry_conditions", failing)
    sections = verify_group(agl_f5)["sections"]
    assert sections["geometry_conditions"]["status"] == "fail"
    for name in ("geometry",) + GEOMETRY_DEPENDENTS:
        assert sections[name] == {"status": "skipped: geometry conditions failed"}
    for name in ("splitting", "coordinatization", "roundtrip", "census"):
        assert sections[name]["status"] == "pass"


def test_raising_certificate_skips_every_stage(agl_f5, monkeypatch):
    def broken(G):
        raise CharacteristicAnomaly("pair orbit out of range")

    monkeypatch.setattr(s2t, "certify_sharply_2_transitive", broken)
    report = verify_group(agl_f5, find_entry("agl-field-5"))
    sections = report["sections"]
    assert sections["certificate"] == {
        "status": "fail", "error": "CharacteristicAnomaly: pair orbit out of range",
    }
    assert {name: sec["status"] for name, sec in sections.items() if name != "certificate"} == {
        name: "skipped: not sharply 2-transitive" for name in list(sections)[1:]
    }
    assert report["ok"] is False and report["conforms"] is False


def test_any_stage_raising_characteristic_two_reads_skipped(agl_f5, monkeypatch):
    """The characteristic-two rule is the runner's, not a list of stages:
    whichever stage raises CharacteristicTwo is skipped, and only that."""
    def refused(G, conditions=None):
        raise CharacteristicTwo("refused")

    monkeypatch.setattr(geometry_mod, "build_geometry", refused)
    report = verify_group(agl_f5, find_entry("agl-field-5"))
    sections = report["sections"]
    for name in ("geometry",) + GEOMETRY_DEPENDENTS:
        assert sections[name] == {"status": "skipped: characteristic two"}
    for name in ("certificate", "basic_properties", "geometry_conditions",
                 "splitting", "coordinatization", "roundtrip", "census"):
        assert sections[name]["status"] == "pass"
    assert report["ok"] is True and report["conforms"] is True


def test_verify_group_report_shape(agl_f5):
    entry = find_entry("agl-field-5")
    report = verify_group(agl_f5, entry)
    assert list(report["sections"]) == [
        "certificate", "basic_properties", "geometry_conditions", "geometry",
        "line_lemma", "no_proper_plane", "divisible_subgroups", "splitting",
        "coordinatization", "roundtrip", "census", "xalpha_covering",
    ]
    assert report["sections"]["geometry"]["n_lines"] == 1
    assert report["conforms"] is True


@pytest.mark.parametrize("flag, value", [("expected_characteristic", 3),
                                         ("expected_split", False)])
def test_entry_expecting_other_flags_does_not_conform(agl_f5, flag, value):
    """Every stage passes, but the entry expected another characteristic or
    split verdict than the report's."""
    entry = dataclasses.replace(find_entry("agl-field-5"), **{flag: value})
    report = verify_group(agl_f5, entry)
    assert report["ok"] is True and report["conforms"] is False


# ---------------------------------------------------------------------------
# argparse surface


def test_cli_catalog_plain_text(capsys):
    assert main(["catalog", "--max-degree", "5"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "agl-field-3            degree=3    char=3 split=True",
        "agl-field-4            degree=4    char=2 split=True",
        "agl-field-5            degree=5    char=5 split=True",
        "sym4-fixture           degree=4    expected to fail certification",
    ]


def test_cli_catalog_json(capsys):
    assert main(["catalog", "--max-degree", "9", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert any(e["id"] == "agl-dickson-3-2" for e in entries)


def test_cli_verify_entry(tmp_path, capsys):
    report_path = tmp_path / "out.json"
    rc = main(["verify", "agl-field-3", "--report", str(report_path), "--quiet"])
    assert rc == 0
    assert report_path.exists()


@pytest.mark.parametrize("command, flag", [
    ("verify", ["--seed", "1"]),
    ("verify", ["--cap-alpha-sample", "3"]),
    ("verify", ["--cap-subgroup-order", "5"]),
    ("census", ["--cap-alpha-sample", "3"]),
], ids=["verify-seed", "verify-cap-alpha-sample", "verify-cap-subgroup-order",
        "census-cap-alpha-sample"])
def test_cli_verify_refuses_seed(command, flag, capsys):
    """Nothing is randomized, so there is no --seed flag; the scan bounds are
    constants, so there are no cap flags."""
    with pytest.raises(SystemExit) as exc:
        main([command, "agl-field-5", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload_of", [
    ("recover", recover_target),
    ("census", census_target),
], ids=["recover", "census"])
def test_recover_payload_is_plain_json_and_what_the_cli_prints(command, payload_of, capsys):
    payload = payload_of("agl-dickson-3-2")
    assert json.loads(json.dumps(payload)) == payload
    assert main([command, "agl-dickson-3-2"]) == 0
    assert json.loads(capsys.readouterr().out) == payload


def test_cli_recover(capsys):
    rc = main(["recover", "agl-field-5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["roundtrip"] is True
    nf = payload["coordinatization"]["nearfield"]
    assert nf["order"] == 5
    assert set(nf) == {"order", "family", "add", "mul"}


def test_cli_recover_not_certified(capsys):
    assert main(["recover", "sym4-fixture"]) == 1


def test_cli_census(capsys):
    rc = main(["census", "agl-field-7"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nhat"] == 7 and payload["khat"] == 7


def test_cli_census_csv(capsys, tmp_path):
    rc = main(["census", "agl-field-5", "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("target,nhat,khat")
    assert lines[1] == "agl-field-5,5,5,True,5,5,0,True,pass"

    out = tmp_path / "c.csv"
    assert main(["census", "agl-field-5", "--csv", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == f"{lines[0]}\n{lines[1]}\n"


def test_cli_census_char2_skips(capsys):
    rc = main(["census", "agl-field-4"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "skipped: characteristic two"


def test_cli_unknown_target_exit_codes(capsys):
    assert main(["census", "missing-entry"]) == 2
    assert main(["recover", "missing-entry"]) == 2


def test_console_script_runs(src_env):
    out = subprocess.run(
        [sys.executable, "-m", "involq.cli", "catalog", "--max-degree", "3"],
        capture_output=True, text=True, env=src_env,
    )
    assert out.returncode == 0
    assert "agl-field-3" in out.stdout
