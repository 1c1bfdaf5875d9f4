import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schroedsym import cli, suites
from schroedsym.cli import main
from schroedsym.errors import ConfigError, DeterminantError
from schroedsym.suites import Check, RunConfig, SuiteReport, run_suite, suite_names


def test_suite_names_cover_all_modules():
    assert set(suite_names()) == {
        "group", "coords", "multiplier", "solutions", "residual", "liealg"}


def test_run_suite_unknown_target():
    with pytest.raises(ConfigError):
        run_suite("nonsense", RunConfig())


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(tol=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(trials=0)
    with pytest.raises(ConfigError):
        RunConfig(k=0.0)
    with pytest.raises(ConfigError):
        RunConfig(omega=0.0)
    with pytest.raises(ConfigError):
        RunConfig(seed=-1)
    for name in ("tol", "k", "alpha", "beta", "omega"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigError):
                RunConfig(**{name: value})


def test_empty_report_is_empty_and_passes():
    rep = SuiteReport([])
    assert rep.all_passed
    assert rep.to_text() == ""
    assert json.loads(rep.to_json()) == []


@pytest.mark.parametrize("defects", [
    (math.nan, 0.1, 0.2), (0.1, math.nan, 0.2), (0.1, 0.2, math.nan),
    (np.array([math.nan, 0.1, 0.2]),), (0.3, np.array([0.1, math.nan, 0.2])),
    (np.array([0.1, 0.2, math.nan]), 0.3),
], ids=["first", "middle", "last", "array_first", "array_middle", "array_last"])
def test_nan_defect_fails_its_check(defects):
    def fn(cfg, rng, trials):
        yield from defects

    result = Check("probe.nan", "a NaN defect fails", 1.0, 1, fn).run(RunConfig())
    assert not result.passed
    assert math.isnan(result.value)
    report = SuiteReport([result])
    assert "value=nan" in report.to_text()
    assert '"value": NaN' in report.to_json()


def test_check_value_is_its_largest_defect():
    def fn(cfg, rng, trials):
        yield from (0.1, 0.3, 0.2)

    result = Check("probe.max", "largest defect", 0.25, 1, fn).run(RunConfig())
    assert result.value == 0.3 and not result.passed


def test_every_registered_check_yields_its_defects():
    checks = list(suites.CHECKS.values())
    assert len(checks) == 68 and all(name == c.name for name, c in suites.CHECKS.items())
    assert [c.name for c in checks if not inspect.isgeneratorfunction(c.fn)] == []


def test_nan_defects_fail_at_extreme_k(tmp_path):
    # at k = 1e-300 the lifts overflow; the checks must not read 0, the
    # overflow is named, and no check aborts the run
    out = tmp_path / "tiny_k.json"
    rc = main(["verify", "all", "--k", "1e-300", "--format", "json", "--out", str(out)])
    assert rc == 1
    rows = {r["name"]: r for r in json.loads(out.read_text())}
    assert len(rows) == 68
    for name in ("solutions.free_gaussian", "solutions.inverse_pair", "solutions.linear_pair",
                 "solutions.mixed_symmetry", "solutions.partials_fd", "residual.fd_order"):
        assert not rows[name]["pass"], name
        assert rows[name]["error"].startswith("FloatingPointError: overflow"), name
    # the operator algebra's 0.25 / k overflows in a product, and is named too
    assert not rows["liealg.jacobi"]["pass"]
    assert rows["liealg.jacobi"]["error"].startswith("FloatingPointError: overflow")


def test_verify_all_at_imaginary_k(tmp_path, capsys):
    # every family runs at an imaginary k: the circle and NLS specs take k
    # itself, where a real k gives them i k and -i k
    out = tmp_path / "imaginary_k.json"
    assert main(["verify", "all", "--k", "0.7j", "--seed", "7", "--format", "json",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 68 and all(r["pass"] for r in rows)
    specs = RunConfig(k=0.7j).specs()
    assert specs["disk"].k == specs["nls2d"].k == 0.7j
    # a complex k with a zero imaginary part is the real k
    assert RunConfig(k=0.7 + 0j).specs() == RunConfig(k=0.7).specs()
    assert main(["verify", "group", "--k", "0.3+0.7j"]) == 2
    assert "config error: k must be real or purely imaginary" in capsys.readouterr().err


def test_negative_imaginary_k_is_a_value(capsys):
    # argparse would read -0.7j as an option and exit 2
    assert main(["verify", "group", "--k", "-0.7j", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows and all(r["pass"] for r in rows)


@pytest.mark.parametrize("flag, text, value", [("alpha", "-1e-3", -1e-3), ("omega", "-6e-1", -0.6),
                                               ("beta", "-2.5e0", -2.5)])
def test_a_negative_value_in_exponent_notation_is_a_value(monkeypatch, flag, text, value):
    # argparse reads only plain decimals as negative numbers, and would
    # read -1e-3 as an option and exit 2
    seen = []
    monkeypatch.setattr(cli, "run_suite", lambda target, cfg: seen.append(cfg) or SuiteReport())
    assert main(["verify", "group", f"--{flag}", text]) == 0
    assert getattr(seen[0], flag) == value


def test_demo_transform_range_value_in_exponent_notation(tmp_path):
    out = tmp_path / "d.tsv"
    assert main(["demo-transform", "--t-min", "-4e-1", "--nt", "3", "--nx", "3", "--out", str(out)]) == 0
    assert float(out.read_text().split("\n")[1].split("\t")[0]) == -0.4


def test_demo_transform_element_may_start_with_a_minus(tmp_path):
    # -1 times the unit: the action fixes (t, x), and the multiplier is a phase
    out = tmp_path / "d.tsv"
    assert main(["demo-transform", "--element", "-1,0,0,-1,0,0", "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 144 and max(float(r[4]) for r in rows) < 1e-9


def test_an_option_is_never_a_value(capsys):
    for argv in (["verify", "group", "--k", "--alpha", "1"], ["verify", "group", "--seed", "-h"],
                 ["verify", "group", "--out", "--"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2, argv
        assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("k", "1e300"), ("beta", "1e300"), ("omega", "1e300"), ("k", "1e300j")])
def test_an_overflow_fails_its_check_not_the_run(tmp_path, flag, value):
    # Python-scalar powers of the parameters overflow inside the checks
    out = tmp_path / "overflow.json"
    assert main(["verify", "all", f"--{flag}", value, "--format", "json", "--out", str(out)]) == 1
    rows = json.loads(out.read_text())
    assert len(rows) == 68
    raised = [r for r in rows if r["error"]]
    assert raised and not any(r["pass"] for r in raised)
    assert any(r["error"].startswith("OverflowError: ") for r in raised)


def test_an_overflow_in_the_library_call_fails_its_check():
    report = run_suite("all", RunConfig(seed=3, k=1e300))
    assert len(report.results) == 68 and not report.all_passed
    assert any((r.error or "").startswith("OverflowError: ") for r in report.results)


def test_demo_transform_reports_an_overflow(tmp_path, capsys):
    assert main(["demo-transform", "--k", "1e300", "--out", str(tmp_path / "d.tsv")]) == 1
    assert capsys.readouterr().err.startswith("error: OverflowError: ")


def test_family_filter_restricts_checks():
    full = run_suite("multiplier", RunConfig(seed=1, trials=2))
    only_nls = run_suite("multiplier", RunConfig(seed=1, trials=2, family="nls2d"))
    assert 0 < len(only_nls.results) < len(full.results)
    assert any(r.name == "multiplier.nls_modulus" for r in only_nls.results)
    assert not any("cocycle_linear" in r.name for r in only_nls.results)


def test_cli_verify_group_passes(capsys):
    rc = main(["verify", "group", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_cli_exit_code_2_on_bad_config(capsys):
    assert main(["verify", "group", "--tol", "-3"]) == 2
    # non-finite parameters, which would otherwise turn defects into NaN
    for target, flag in (("solutions", "--k=nan"), ("coords", "--k=nan"),
                         ("residual", "--k=nan"), ("group", "--tol=nan"),
                         ("group", "--alpha=inf"), ("group", "--beta=-inf"),
                         ("group", "--omega=nan"), ("multiplier", "--omega=0")):
        assert main(["verify", target, flag]) == 2, (target, flag)


def test_cli_exit_code_2_on_a_non_finite_element(tmp_path, capsys):
    # in a translation the element would print nan rows and exit 0, in the
    # matrix it would fail the determinant guard with exit 1
    out = str(tmp_path / "d.tsv")
    for element in ("1,0,0,1,nan,0", "1,0,0,1,0,inf", "1,nan,0,1,0,0", "1,0,0,-inf,0,0"):
        assert main(["demo-transform", "--element", element, "--out", out]) == 2, element
        assert "config error: element entries must be finite" in capsys.readouterr().err


def test_cli_exit_code_2_on_an_unwritable_out(tmp_path, capsys):
    out = str(tmp_path / "no" / "such" / "dir" / "r.json")
    for argv in (["verify", "group", "--out", out], ["demo-transform", "--out", out]):
        assert main(argv) == 2, argv
        assert f"config error: cannot write {out}" in capsys.readouterr().err


def test_python_m_entry_point():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "schroedsym", "verify", "group", "--seed", "7"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "checks passed" in proc.stdout


def test_cli_config_file_flags_win(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed = 9\ntol = 1e-1\n# comment line\n")
    rc = main(["verify", "group", "--config", str(cfgfile), "--seed", "3"])
    assert rc == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense 1\n")
    assert main(["verify", "group", "--config", str(bad)]) == 2
    # unknown keys, and values outside the choices the flags enforce
    for line in ("who = 1\n", "n = 3\n", "family = nonsense\n", "format = xml\n"):
        unknown = tmp_path / "unknown.cfg"
        unknown.write_text(line)
        assert main(["verify", "group", "--config", str(unknown)]) == 2, line


def test_json_report_shape_and_determinism(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "group", "--seed", "5", "--format", "json", "--out", str(p1)]) == 0
    assert main(["verify", "group", "--seed", "5", "--format", "json", "--out", str(p2)]) == 0
    rows1 = json.loads(p1.read_text())
    rows2 = json.loads(p2.read_text())
    for rows in (rows1, rows2):
        for row in rows:
            assert set(row) == {"name", "anchor", "pass", "value", "tol", "seconds", "error"}
            assert row["error"] is None
            row.pop("seconds")
    assert json.dumps(rows1, sort_keys=True) == json.dumps(rows2, sort_keys=True)
    # round-trips through the parser
    assert json.loads(json.dumps(rows1)) == rows1


def test_verify_all_at_uniform_tolerance_passes():
    # structurally coarse checks keep their own scales, identities tighten
    assert main(["verify", "all", "--tol", "1e-9", "--trials", "3",
                 "--seed", "2", "--format", "json", "--out", "/dev/null"]) == 0


def test_failing_check_flips_exit_code(tmp_path, monkeypatch):
    # an absurd tolerance forces failures without touching the library
    rc = main(["verify", "group", "--tol", "1e-300", "--format", "json",
               "--out", str(tmp_path / "f.json")])
    assert rc == 1
    rows = json.loads((tmp_path / "f.json").read_text())
    assert any(not r["pass"] for r in rows)


def test_a_check_that_raises_fails_alone(tmp_path, monkeypatch, capsys):
    def raising(cfg, rng, trials):
        raise DeterminantError("det off by 1e-9")
        yield

    monkeypatch.setattr(suites.CHECKS["group.symplectic"], "fn", raising)
    out = tmp_path / "all.json"
    assert main(["verify", "all", "--format", "json", "--out", str(out)]) == 1
    rows = json.loads(out.read_text())
    assert len(rows) == 68
    failed = [r for r in rows if not r["pass"]]
    assert [r["name"] for r in failed] == ["group.symplectic"]
    assert failed[0]["error"] == "DeterminantError: det off by 1e-9"
    assert math.isnan(failed[0]["value"])
    assert main(["verify", "group"]) == 1
    assert "error: DeterminantError: det off by 1e-9" in capsys.readouterr().out


def test_demo_transform_identity_reproduces_solution(tmp_path):
    out = tmp_path / "demo.tsv"
    rc = main(["demo-transform", "--identity", "--solution", "f1",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    rows = [line.split("\t") for line in out.read_text().strip().split("\n")]
    assert rows[0] == ["t", "x", "re_psi", "im_psi", "residual_abs"]
    from schroedsym.coords import FamilySpec
    from schroedsym.solutions import f_pair

    f1 = f_pair(FamilySpec.linear(0.7, 0.3, 0.9))[0]
    for t, x, re, im, res in rows[1:5]:
        want = f1.value(float(t), float(x))
        assert abs(complex(float(re), float(im)) - want) < 1e-12


def test_negative_seed_is_bad_configuration(tmp_path, capsys):
    # numpy's generators take no negative seed; the CLI says so with exit 2
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed = -1\n")
    out = str(tmp_path / "d.tsv")
    for argv in (["verify", "all", "--seed", "-1"], ["verify", "group", "--config", str(cfgfile)],
                 ["demo-transform", "--seed", "-1", "--out", out]):
        assert main(argv) == 2, argv
        assert "config error: seed must be >= 0" in capsys.readouterr().err


def test_demo_transform_rejects_empty_grid(tmp_path):
    for flag in ("--nt=0", "--nx=0", "--nt=-1", "--nx=-2"):
        assert main(["demo-transform", flag, "--out", str(tmp_path / "d.tsv")]) == 2, flag


@pytest.mark.parametrize("solution", ["f2", "power"])
def test_demo_transform_default_window_lies_in_the_domain(tmp_path, solution):
    out = tmp_path / "d.tsv"
    assert main(["demo-transform", "--solution", solution, "--seed", "3", "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 144 and max(float(r[4]) for r in rows) < 1e-9


def test_demo_transform_range_flag_replaces_the_default_window(tmp_path):
    # a range flag turns the solution's own window off; x <= 0 leaves the domain
    assert main(["demo-transform", "--solution", "power", "--x-min", "-1.2",
                 "--out", str(tmp_path / "d.tsv")]) == 1


def test_demo_transform_residual_column_small(tmp_path):
    out = tmp_path / "demo2.tsv"
    assert main(["demo-transform", "--solution", "f1", "--seed", "4",
                 "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().strip().split("\n")[1:]]
    assert max(float(r[4]) for r in rows) < 1e-9


def test_demo_transform_theta_modular_ratio(tmp_path):
    out = tmp_path / "theta.tsv"
    # the standard inversion element in integer entries
    assert main(["demo-transform", "--solution", "theta",
                 "--element", "0,-1,1,0", "--seed", "1", "--out", str(out)]) == 2
    assert main(["demo-transform", "--solution", "theta",
                 "--element", "0,-1,1,0,0,0", "--seed", "1", "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().strip().split("\n")[1:]]
    from schroedsym.solutions import theta1

    th = theta1(24)
    ratios = []
    for row in rows[:20]:
        t = complex(row[0])
        x = float(row[1])
        psi = complex(float(row[2]), float(row[3]))
        ratios.append(psi / th.value(t, x))
    eps = ratios[0]
    assert abs(eps ** 8 - 1.0) < 1e-8
    assert max(abs(r - eps) for r in ratios) < 1e-8


@pytest.mark.parametrize("flags", [["--k", "-0.7"], ["--omega", "-0.6"],
                                   ["--k", "0.1", "--omega", "0.1"]])
def test_reality_domain_control_holds_at_every_real_k_omega(flags):
    # the sign-flip control acts where exp(4 k omega t) = 4, which makes
    # a u + b = -1 whatever the sign and size of k omega
    assert main(["verify", "coords", *flags, "--format", "json", "--out", "/dev/null"]) == 0
