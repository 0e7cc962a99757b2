"""End-to-end checks of the command-line interface via main(argv)."""

import json
import re

import pytest

from reeb_bubble.cli import main
from reeb_bubble.descriptor import parse_descriptor, serialize_descriptor

POINT_N3 = {
    "n": 3,
    "base": {"handles": []},
    "records": [{"kind": "point", "spheres": []}],
}
COEFF2 = {
    "n": 3,
    "base": {"handles": [{"sphere": 1}]},
    "records": [{"kind": "M", "spheres": [{"dim": 1, "coefficients": {"nu1": 2}}]}],
}
MULTI_TARGET = {
    "n": 3,
    "base": {"handles": [{"sphere": 1}, {"sphere": 1}]},
    "records": [
        {"kind": "M", "spheres": [{"dim": 1, "coefficients": {"nu1": 1, "nu2": 1}}]}
    ],
}
PLAN = {
    "n": 3,
    "handle_counts": [1, 0],
    "target_ranks": [0, 1, 1],
    "sphere_counts": [[0, 1]],
    "coefficients": [[1, 2, 1, 1, 2]],
    "normal": False,
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "d.json", POINT_N3)
    assert main(["validate", "-d", path]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_rejects(tmp_path, capsys):
    path = write(tmp_path, "d.json", {"n": 1, "base": {"handles": []}, "records": []})
    assert main(["validate", "-d", path]) == 1
    assert capsys.readouterr().out == "invalid: base.n: must be >= 2, got 1\n"
    out = tmp_path / "report.json"
    assert main(["validate", "-d", path, "--json", str(out)]) == 1
    assert json.loads(out.read_text()) == {
        "command": "validate",
        "ok": False,
        "violations": ["base.n: must be >= 2, got 1"],
    }


@pytest.mark.parametrize("command", ["homology", "ring", "verify", "infer-manifold"])
def test_invalid_descriptor_is_refused_by_every_command(tmp_path, capsys, command):
    doc = {"n": 1, "base": {"handles": [{"sphere": 2}]}, "records": []}
    path = write(tmp_path, "d.json", doc)
    extra = ["-m", "4"] if command == "infer-manifold" else []
    assert main([command, "-d", path] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "invalid descriptor: base.n: must be >= 2, got 1; "
        "base.handles[0]: core dimension 2 outside 1..0\n"
    )


def test_homology_table(tmp_path, capsys):
    path = write(tmp_path, "d.json", POINT_N3)
    assert main(["homology", "-d", path, "--ring", "Z"]) == 0
    assert "(1, 0, 0, 1)" in capsys.readouterr().out


def test_homology_json_report(tmp_path):
    path = write(tmp_path, "d.json", POINT_N3)
    out = tmp_path / "report.json"
    assert main(["homology", "-d", path, "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["rings"][0] == {
        "ring": "Z",
        "free_ranks": [1, 0, 0, 1],
        "torsion": [[], [], [], []],
    }


def test_ring_output(tmp_path, capsys):
    path = write(tmp_path, "d.json", COEFF2)
    assert main(["ring", "-d", path, "--ring", "Z"]) == 0
    text = capsys.readouterr().out
    assert "nu1 * b1.1 = 2 t1" in text
    assert "pairing (1,2): divisors [2]" in text


def test_verify_three_rings(tmp_path, capsys):
    path = write(tmp_path, "d.json", COEFF2)
    code = main(
        ["verify", "-d", path, "--ring", "Z", "--ring", "Q", "--ring", "Zp", "--p", "2"]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "overall: ok" in text
    assert "pairing (1,2) over Z: divisors [2]" in text
    assert "pairing (1,2) over Q: rank 1" in text
    assert "pairing (1,2) over Z/2: rank 0" in text


def test_verify_json_report(tmp_path):
    path = write(tmp_path, "d.json", COEFF2)
    out = tmp_path / "rep.json"
    assert main(["verify", "-d", path, "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert doc["tier"] == 2
    assert doc["rings"][0]["homology_match"] is True


def test_verify_reports_oracle_failure_as_mismatch(tmp_path, capsys, monkeypatch):
    def failing(K, R, top_degree=None):
        raise RuntimeError("cocycle coordinate failed to be integral")

    monkeypatch.setattr("reeb_bubble.oracle.cup_ring_of_complex", failing)
    path = write(tmp_path, "d.json", COEFF2)
    out = tmp_path / "rep.json"
    assert main(["verify", "-d", path, "--json", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["ok"] is False
    witness = "tier-2 oracle: cocycle coordinate failed to be integral"
    assert witness in doc["rings"][0]["witnesses"]
    assert main(["verify", "-d", path]) == 1
    assert "tier-2 oracle: cocycle coordinate failed" in capsys.readouterr().out


def test_verify_forced_tier_unsupported(tmp_path, capsys):
    path = write(tmp_path, "d.json", MULTI_TARGET)
    assert main(["verify", "-d", path, "--tier", "2"]) == 1
    assert "tier error" in capsys.readouterr().err


def test_verify_auto_falls_back_to_tier1(tmp_path, capsys):
    path = write(tmp_path, "d.json", MULTI_TARGET)
    assert main(["verify", "-d", path]) == 0
    assert "tier 1" in capsys.readouterr().out


def test_realize_round_trip(tmp_path, capsys):
    plan = write(tmp_path, "plan.json", PLAN)
    out = tmp_path / "realized.json"
    assert main(["realize", "--plan", plan, "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "-d", str(out)]) == 0


def test_realize_stdout(tmp_path, capsys):
    plan = write(tmp_path, "plan.json", PLAN)
    assert main(["realize", "--plan", plan]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"][0]["spheres"][0]["coefficients"] == {"nu1": 2}


def test_realize_rejects_bad_plan(tmp_path, capsys):
    bad = dict(PLAN, target_ranks=[1, 1, 1])
    plan = write(tmp_path, "plan.json", bad)
    assert main(["realize", "--plan", plan]) == 1
    assert "target_ranks" in capsys.readouterr().err


def test_unknown_ring_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "d.json", POINT_N3)
    with pytest.raises(SystemExit) as exc:
        main(["homology", "-d", path, "--ring", "Z5"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_zp_without_prime_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "d.json", POINT_N3)
    assert main(["homology", "-d", path, "--ring", "Zp"]) == 2
    assert "--p" in capsys.readouterr().err


def test_extra_prime_is_usage_error(tmp_path):
    path = write(tmp_path, "d.json", POINT_N3)
    assert main(["homology", "-d", path, "--ring", "Z", "--p", "2"]) == 2


def test_nonprime_p_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "d.json", POINT_N3)
    assert main(["homology", "-d", path, "--ring", "Zp", "--p", "4"]) == 2
    assert "prime" in capsys.readouterr().err


def test_large_prime_modulus(tmp_path, capsys):
    path = write(tmp_path, "d.json", COEFF2)
    assert main(["homology", "-d", path, "--ring", "Zp", "--p", str(2**61 - 1)]) == 0
    assert f"Z/{2**61 - 1}: (1, 1, 1, 1)" in capsys.readouterr().out
    bound = "3317044064679887385961981"
    assert main(["homology", "-d", path, "--ring", "Zp", "--p", bound]) == 2
    assert f"below the bound {bound}" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["homology", "-d", "/nonexistent/d.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_garbage_json(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text("not json{")
    assert main(["validate", "-d", str(path)]) == 1
    assert "schema violation" in capsys.readouterr().err


def one_line_error(capsys, *words):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert all(w in err for w in words), err


@pytest.mark.parametrize("command", ["validate", "homology", "ring", "verify"])
def test_unwritable_json_path_is_one_line_error(tmp_path, capsys, command):
    path = write(tmp_path, "d.json", POINT_N3)
    report = str(tmp_path / "missing" / "report.json")
    assert main([command, "-d", path, "--json", report]) == 1
    one_line_error(capsys, "cannot write report file", report)


def test_unwritable_realize_output_is_one_line_error(tmp_path, capsys):
    plan = write(tmp_path, "plan.json", PLAN)
    out = str(tmp_path / "missing" / "out.json")
    assert main(["realize", "--plan", plan, "-o", out]) == 1
    one_line_error(capsys, "cannot write descriptor file", out)


def test_non_utf8_descriptor_names_the_file(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_bytes(b"\xff" + json.dumps(POINT_N3).encode())
    assert main(["validate", "-d", str(path)]) == 1
    one_line_error(capsys, "cannot read descriptor file", str(path), "utf-8")


def test_non_utf8_plan_names_the_file(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_bytes(b"\xff" + json.dumps(PLAN).encode())
    assert main(["realize", "--plan", str(path)]) == 1
    one_line_error(capsys, "cannot read plan file", str(path), "utf-8")


def test_infer_manifold(tmp_path, capsys):
    path = write(tmp_path, "d.json", POINT_N3)
    assert main(["infer-manifold", "-d", path, "-m", "6", "--ring", "Q"]) == 0
    text = capsys.readouterr().out
    assert "qualifies: yes" in text
    assert "total rank of the source: 4" in text


def test_infer_manifold_single_ring_only(tmp_path, capsys):
    path = write(tmp_path, "d.json", POINT_N3)
    code = main(["infer-manifold", "-d", path, "-m", "6", "--ring", "Z", "--ring", "Q"])
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


def test_catalog_only_filter(tmp_path):
    out = tmp_path / "cat.json"
    code = main(
        ["catalog", "--only", "circle-pair-unimodular", "--json", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert [row["name"] for row in doc["instances"]] == ["circle-pair-unimodular"]


def test_catalog_only_no_match(capsys):
    assert main(["catalog", "--only", "no-such-instance"]) == 2
    assert "matches no" in capsys.readouterr().err


def test_catalog_plans_deterministic_given_seed(tmp_path):
    def run(seed, tag):
        out = tmp_path / f"{tag}.json"
        assert main(["catalog", "--only", "plan-", "--seed", seed, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        return [
            {k: v for k, v in row.items() if k != "seconds"}
            for row in doc["instances"]
        ]

    first = run("7", "a")
    second = run("7", "b")
    other = run("8", "c")
    assert first == second
    assert all(row["ok"] for row in other)


# the README's verify example, circle-pair-doubled over Z, Q and Z/2, as
# the command printed it when every ring built and checked its own ring;
# only the per-ring seconds are masked
README_VERIFY_TEXT = """\
tier 2  overall: ok
     Z  homology ok  ring ok  0.00s
     Q  homology ok  ring ok  0.00s
   Z/2  homology ok  ring ok  0.00s
  pairing (1,2) over Z: divisors [2]
  pairing (1,2) over Q: rank 1
  pairing (1,2) over Z/2: rank 0
"""


def _ring_row(label):
    return {
        "ring": label,
        "tier": 2,
        "homology_match": True,
        "ring_match": True,
        "seconds": 0,
        "witnesses": [],
    }


def test_readme_verify_example_output_is_unchanged(tmp_path, capsys):
    path = write(tmp_path, "d.json", COEFF2)
    argv = ["verify", "-d", path, "--ring", "Z", "--ring", "Q", "--ring", "Zp", "--p", "2"]
    assert main(argv) == 0
    text = re.sub(r"  \d+\.\d\ds$", "  0.00s", capsys.readouterr().out, flags=re.M)
    assert text == README_VERIFY_TEXT
    out = tmp_path / "rep.json"
    assert main(argv + ["--json", str(out)]) == 0
    descriptor = serialize_descriptor(parse_descriptor(json.dumps(COEFF2)))
    expected = {
        "descriptor": descriptor,
        "tier": 2,
        "ok": True,
        "euler_match": True,
        "euler_witness": None,
        "rings": [_ring_row("Z"), _ring_row("Q"), _ring_row("Z/2")],
    }
    written = re.sub(r'"seconds": [0-9.e-]+', '"seconds": 0', out.read_text())
    assert written == json.dumps(expected, indent=2) + "\n"
