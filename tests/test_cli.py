"""CLI surface: subcommands, output schemas, exit codes."""

import csv
import io
import json
import math

import pytest

from framelab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_z6(capsys):
    code, out, _ = run(capsys, "classify", "--group", "Z6", "--set", "0,1,3")
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == 1
    assert d["divisible"] == {"H": [0, 3], "l": 2, "lam": 2, "mu": 1, "proper": True}
    assert d["frame"]["is_btf"]
    angles = [a["value"] for a in d["frame"]["angles"]]
    assert angles == pytest.approx([1 / 3, 1 / math.sqrt(3)])
    # field-for-field JSON round trip
    assert json.loads(json.dumps(d)) == d


def test_angles_z9(capsys):
    code, out, _ = run(capsys, "angles", "--group", "Z9", "--set", "0,1,3,4")
    assert code == 0
    d = json.loads(out)
    assert len(d["angles"]) == 4
    assert not d["is_btf"] and not d["is_etf"] and d["is_tight"]


def test_predict_dds(capsys):
    code, out, _ = run(
        capsys, "predict", "dds", "-n", "6", "-m", "3", "-l", "2", "--lam", "2", "--mu", "1"
    )
    assert code == 0
    d = json.loads(out)
    assert d["multiplicity_conflict"] is True
    assert [a["symbolic"] for a in d["angles"]] == ["1/3", "sqrt(3)/3"]


def test_predict_ndds(capsys):
    code, out, _ = run(
        capsys, "predict", "ndds", "--group", "Z2xZ4", "--set", "(0,0),(1,0),(0,1)"
    )
    assert code == 0
    d = json.loads(out)
    assert d["biangular"] is True
    assert [round(a["value"], 6) for a in d["angles"]] == [0.333333, 0.745356]


def test_predict_quartic_not_applicable(capsys):
    code, out, _ = run(capsys, "predict", "quartic", "-p", "17")
    assert code == 0
    assert json.loads(out)["applicable"] is False


def test_search_group_json(capsys):
    code, out, _ = run(
        capsys, "search", "--group", "Z8", "-m", "3",
        "--filter", f"angles=0.3333333333333333,{math.sqrt(5)/3}",
    )
    assert code == 0
    d = json.loads(out)
    assert d["match_count"] == 16
    assert d["total_enumerated"] == 56


def test_search_order_exhaustion(capsys):
    code, out, _ = run(
        capsys, "search", "--order", "8", "-m", "3",
        "--filter", f"angles=0.3333333333333333,{math.sqrt(5)/3}",
    )
    assert code == 0
    d = json.loads(out)
    counts = {g["group"]: g["match_count"] for g in d["groups"]}
    assert counts == {"Z2xZ2xZ2": 0, "Z2xZ4": 32, "Z8": 16}


def test_search_csv_output(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code, _, _ = run(
        capsys, "search", "--group", "Z6", "-m", "3", "--filter", "btf",
        "--out", str(out_file),
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_file.read_text())))
    assert rows[0][:4] == ["group", "subset", "n", "m"]
    assert len(rows) > 1


def test_gauss_commands(capsys):
    code, out, _ = run(capsys, "gauss", "legendre", "2", "13")
    assert code == 0 and json.loads(out)["legendre"] == -1
    code, out, _ = run(capsys, "gauss", "sum", "1", "13")
    d = json.loads(out)
    assert d["real"] == pytest.approx(math.sqrt(13)) and d["imag"] == pytest.approx(0, abs=1e-9)
    code, out, _ = run(capsys, "gauss", "residues", "13", "--power", "4")
    assert json.loads(out)["elements"] == [1, 3, 9]
    code, out, _ = run(capsys, "gauss", "cosets", "13")
    assert json.loads(out)["cosets"][0] == [1, 3, 9]
    code, out, _ = run(capsys, "gauss", "quartic", "13")
    d = json.loads(out)
    assert (d["lam"], d["mu"]) == (0, 1)


def test_tables_csv(capsys):
    from framelab.predictions import TABLE_ROWS

    code, out, _ = run(capsys, "tables")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "table"
    assert len(rows) == 1 + sum(len(r.samples) for r in TABLE_ROWS)
    assert all(row[-1] == "True" for row in rows[1:])


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "z6-example")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_modulation_named_frame(capsys):
    code, out, _ = run(capsys, "verify", "modulation", "--group", "Z6", "--set", "0,1,3")
    assert code == 0
    assert out.count("PASS") == 4


def test_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "gauss", "legendre", "3", "9")
    assert code == 1
    assert "error" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--group", "Z6", "--bogus"])
    assert exc.value.code == 2


def test_invariant_error_exit_1(capsys, monkeypatch):
    # a closed form that drifts from the numeric sum is a library defect, but
    # the CLI still reports it on stderr with exit code 1, not a traceback
    import framelab.residues as residues
    from framelab.errors import InvariantError

    monkeypatch.setattr(residues, "gauss_sum_closed_form", lambda a, p: 0j)
    with pytest.raises(InvariantError):
        residues.gauss_sum(1, 13)
    code, out, err = run(capsys, "gauss", "sum", "1", "13")
    assert code == 1
    assert out == ""
    assert err.startswith("error: gauss sum drifted from closed form")
    assert "Traceback" not in err


def test_search_unknown_filter_exit_1(capsys):
    code, out, err = run(capsys, "search", "--group", "Z7", "-m", "3", "--filter", "differnce-set")
    assert code == 1
    assert out == ""
    assert "unknown filter 'differnce-set'" in err
