"""CLI surface: subcommands, output schemas, exit codes."""

import csv
import io
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from framelab.cli import main


def run(capsys, *argv):
    """Exit code, stdout and stderr; a usage error's SystemExit gives its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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


def test_predict_ndds_three_angle_chain(capsys):
    code, out, _ = run(
        capsys, "predict", "ndds", "--group", "Z3xZ4", "--set", "(0,0),(0,1),(1,0),(2,0)"
    )
    assert code == 0
    d = json.loads(out)
    assert d["biangular"] is False
    assert d["shell_values"] == [[0.0625, 8], [0.25, 1], [0.625, 2]]


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


def test_search_out_suffix_in_upper_case_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "r.CSV"
    code, _, _ = run(capsys, "search", "--group", "Z8", "-m", "3", "--out", str(out_file))
    assert code == 0
    _, want, _ = run(capsys, "search", "--group", "Z8", "-m", "3", "--format", "csv")
    assert out_file.read_text() == want
    assert want.startswith("group,subset,n,m,")


def test_classify_out_suffix_in_upper_case_is_refused_as_csv(tmp_path, capsys):
    out_file = tmp_path / "c.CSV"
    argv = ("classify", "--group", "Z6", "--set", "0,1,3", "--out", str(out_file))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: csv output not available for this command\n"
    assert not out_file.exists()


@pytest.mark.parametrize("fmt, other", [("json", "to_csv_rows"), ("csv", "to_dict")])
def test_search_builds_only_the_format_it_writes(capsys, monkeypatch, fmt, other):
    from framelab.search import SearchReport

    argv = ("search", "--group", "Z6", "-m", "3", "--format", fmt)
    code, want, _ = run(capsys, *argv)

    def refused(self):
        raise AssertionError(f"{other} built for a {fmt} report")

    monkeypatch.setattr(SearchReport, other, refused)
    code_patched, got, _ = run(capsys, *argv)
    assert (code, code_patched) == (0, 0)
    runtime = re.compile(r'"runtime_seconds": [^,]*,')
    assert runtime.sub("", got) == runtime.sub("", want)
    assert want.count("\n") > 20


@pytest.mark.parametrize(
    "argv, work",
    [
        (("search", "--order", "8", "-m", "3", "--filter",
          f"angles=0.3333333333333333,{math.sqrt(5)/3}"), "cross_group_angle_match"),
        (("classify", "--group", "Z7", "--set", "0,1,3"), "classify"),
        (("angles", "--group", "Z7", "--set", "0,1,3"), "frame_report"),
        (("predict", "dds", "-n", "6", "-m", "3", "-l", "2", "--lam", "2", "--mu", "1"),
         "dds_angles"),
        (("gauss", "legendre", "2", "7"), "legendre"),
    ],
)
def test_csv_is_refused_before_any_work(capsys, monkeypatch, tmp_path, argv, work):
    # a command without CSV output exits 1 at once: the work it would have
    # done raises here, so a check made after the work fails this test
    import framelab.cli as cli

    def ran(*args, **kwargs):
        raise AssertionError(f"{work} ran before the format check")

    monkeypatch.setattr(cli, work, ran)
    out_file = tmp_path / "x.csv"
    asks = [("--out", str(out_file))] + ([("--format", "csv")] if argv[0] == "search" else [])
    for extra in asks:
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (1, ""), extra
        assert err == "error: csv output not available for this command\n"
    assert not out_file.exists()


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


@pytest.mark.parametrize(
    "argv, flags",
    [
        (("modulation", "--set", "0,1,3"), "--group"),
        (("modulation", "--group", "Z6"), "--set"),
        (("modulation", "--max-order", "4"), "--max-order"),
        (("properties", "--set", "0,1"), "--set"),
        (("all", "--max-order", "4"), "--max-order"),
        (("etf-difference", "--group", "Z6", "--set", "0,1,3"), "--group, --set"),
    ],
)
def test_verify_rejects_options_the_suite_does_not_read(capsys, argv, flags):
    # a flag the suite does not declare is a usage error; modulation declares
    # --group and --set, and its own check wants both of them
    code, out, err = run(capsys, "verify", *argv)
    assert out == ""  # nothing ran
    if argv[0] == "modulation" and flags in ("--group", "--set"):
        assert code == 1
        assert err.startswith("error: ") and f"needs {flags}" in err
    else:
        assert code == 2
        assert "error: unrecognized arguments:" in err
        assert all(f in err for f in flags.split(", "))


def test_verify_etf_difference_reads_max_order(capsys):
    code, out, _ = run(capsys, "verify", "etf-difference", "--max-order", "5")
    assert code == 0
    assert "over orders 2..5" in out
    # below 2 the sweep is empty and would pass on no subsets
    code, out, err = run(capsys, "verify", "etf-difference", "--max-order", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--max-order >= 2" in err


@pytest.mark.parametrize(
    "argv",
    [("gauss", "sum", "1", "65537"), ("gauss", "half-sum", "1", "65537"),
     ("gauss", "residues", "65537")],
)
def test_gauss_prime_above_the_bound_exit_1(capsys, argv):
    # 65537 is the first prime above residues.PRIME_BOUND = 2^16
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: residue tables capped at p <= 65536")


def test_gauss_paley_above_the_order_bound_exit_1(capsys):
    # 4099 is a prime above groups.SUBGROUP_ORDER_BOUND = 4096
    code, out, err = run(capsys, "gauss", "paley", "4099")
    assert code == 1 and out == ""
    assert err.startswith("error: difference counts capped at order 4096")


@pytest.mark.parametrize("action", ["sum", "half-sum"])
def test_gauss_sum_mod_zero_exit_1(capsys, action):
    code, out, err = run(capsys, "gauss", action, "1", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: 0 is not an odd prime")


def test_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "gauss", "legendre", "3", "9")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv", [("--group", "Z21", "-m", "4"), ("--order", "8", "-m", "3", "--filter", "angles=0,1")]
)
def test_search_worker_count_below_one_exit_1(capsys, argv):
    code, out, err = run(capsys, "search", *argv, "--jobs", "-5")
    assert code == 1 and out == ""
    assert err == "error: jobs must be at least 1, got -5\n"


@pytest.mark.parametrize("command", ["angles", "classify"])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "0"])
def test_tolerance_must_be_finite_and_positive(capsys, command, tol):
    # each was once accepted: -1 reported five angles, nan and inf one angle
    # (0.43094) that no character has, and 0 split sqrt(3)/3 so the BTF read no BTF
    code, out, err = run(capsys, command, "--group", "Z6", "--set", "0,1,3", "--tol", tol)
    assert code == 1 and out == ""
    assert err.startswith("error: angle tolerance must be finite and positive")


@pytest.mark.parametrize("where", [("--group", "Z7"), ("--order", "7")])
@pytest.mark.parametrize("target", ["nan", "0.5,inf"])
def test_search_target_angles_must_be_finite(capsys, where, target):
    # nan was once accepted and written into the report as NaN, which is not JSON
    code, out, err = run(capsys, "search", *where, "-m", "3", "--filter", f"angles={target}")
    assert code == 1 and out == ""
    assert err.startswith("error: target angles must be finite")


def test_group_separator_in_either_case(capsys):
    argv = ("classify", "--set", "(0,0),(1,0),(0,1)", "--group")
    _, want, _ = run(capsys, *argv, "Z2xZ4")
    code, got, err = run(capsys, *argv, "Z2XZ4")
    assert code == 0 and err == "" and got == want


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--group", "Z6", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, missing",
    [
        (("dds", "-n", "6", "-m", "3"), "-l, --lam, --mu"),
        (("rds", "-n", "8", "-l", "2"), "-m, --mu"),
        (("pds", "-n", "13", "-m", "6", "--mu", "3"), "--lam"),
        (("gaussian", "-p", "13", "-m", "3"), "--lam, --mu"),
        (("quartic", "--zero-in-s"), "-p"),
        (("ndds", "--group", "Z2xZ4"), "--set"),
    ],
)
def test_predict_missing_parameter_is_a_usage_error(capsys, argv, missing):
    # once a TypeError (or, for ndds, an AttributeError) traceback with exit 1
    code, out, err = run(capsys, "predict", *argv)
    assert code == 2 and out == ""
    required = "error: the following arguments are required"
    assert f"framelab predict {argv[0]}: {required}: {missing}\n" in err


def test_predict_dds_with_trivial_subgroup_is_an_etf(capsys):
    # the Fano plane relative to H = {0}: a difference set, so one angle
    code, out, _ = run(
        capsys, "predict", "dds", "-n", "7", "-m", "3", "-l", "1", "--lam", "0", "--mu", "1"
    )
    assert code == 0
    d = json.loads(out)
    assert d["is_etf"] is True
    assert [a["symbolic"] for a in d["angles"]] == ["sqrt(2)/3"]
    assert d["stated_multiplicities"] == d["derived_multiplicities"] == [6]


@pytest.mark.parametrize(
    "argv",
    [
        ("angles", "--group", "Z7", "--set", "0,1,3"),
        ("classify", "--group", "Z7", "--set", "0,1,3"),
        ("predict", "dds", "-n", "6", "-m", "3", "-l", "2", "--lam", "2", "--mu", "1"),
        ("gauss", "legendre", "2", "7"),
        ("search", "--group", "Z7", "-m", "3"),
        ("tables",),
    ],
)
def test_format_text_is_a_usage_error(capsys, argv):
    # only search and tables take --format, and only json or csv
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "text"])
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


@pytest.mark.parametrize(
    "argv, named",
    [
        (("predict", "dds", "-n", "6", "-m", "3", "-l", "2", "--lam", "2", "--mu", "1",
          "-p", "7", "--group", "Z9"), ("unrecognized arguments: -p 7 --group Z9",)),
        (("verify", "paley", "--group", "Z6"), ("unrecognized arguments: --group Z6",)),
        (("search", "-m", "3"), ("one of the arguments --group --order is required",)),
        (("search", "--group", "Z9", "--order", "8", "-m", "3", "--filter", "angles=0.5"),
         ("--order", "not allowed with argument --group")),
        (("search", "--order", "8", "-m", "3", "--mode", "reduced",
          "--filter", "angles=0.5"), ("--mode reduced takes --group",)),
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv, named):
    # each once exited 0 with the flag dropped, or ended in a traceback
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert all(s in err for s in named)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("classify", "--group", "Z9", "--set", "0,1,a"),
         "error: cannot parse element 'a' of Z9: coordinates are integers"),
        (("classify", "--group", "Z2xZ4", "--set", "(0,0),(1,x)"),
         "error: cannot parse element '(1,x)' of Z2xZ4: coordinates are integers"),
        (("search", "--group", "Z9", "-m", "3", "--filter", "angles=x"),
         "error: --filter angles= takes a comma list of numbers, got 'x'"),
        (("search", "--group", "Z9", "-m", "3", "--filter", "angles="),
         "error: --filter angles= takes a comma list of numbers, got ''"),
    ],
)
def test_malformed_values_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(message)
    assert "Traceback" not in err


def _readme_commands() -> list[list[str]]:
    """The argv of every `framelab ...` line in README's code blocks, comments dropped."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", text, re.M | re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("framelab ")]
    return [shlex.split(ln, comments=True)[1:] for ln in lines]


def test_readme_has_command_examples():
    assert len(_readme_commands()) == 23


@pytest.mark.parametrize("argv", _readme_commands(), ids=shlex.join)
def test_readme_command_exits_0(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # for the examples that write --out files
    code, _, err = run(capsys, *argv)
    assert code == 0, err


def test_readme_library_example_prints_what_its_comments_say(capsys):
    text = (Path(__file__).parents[1] / "README.md").read_text()
    library = text[text.index("\n## Library\n"):]
    code = re.search(r"^```python\n(.*?)^```", library, re.M | re.S).group(1)
    scope: dict = {}
    exec(code, scope)
    assert capsys.readouterr().out == "(2, 0, 1)\n"
    prof, cls, chain, report = (scope[k] for k in ("prof", "cls", "chain", "report"))
    assert prof.angles == pytest.approx((1 / 3, math.sqrt(5) / 3))
    assert prof.multiplicities == (5, 2)
    assert not cls.bidifference
    assert (chain.t, chain.lambdas) == (3, (2, 0, 1))
    counts = {g["group"]: g["match_count"] for g in report["groups"]}
    assert counts == {"Z2xZ2xZ2": 0, "Z2xZ4": 32, "Z8": 16}
    assert all(g["bidifference_matches"] == 0 for g in report["groups"])
