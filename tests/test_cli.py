"""The polarsolve command-line interface, driven in-process.

Everything goes through ``main(argv)`` so exit codes and both streams
are observable; one subprocess smoke test at the end confirms the real
``python -m polarsolve`` wiring.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polarsolve
from polarsolve import ConvergenceError, ModelParams, delta_at_zero, solve_symmetric
from polarsolve.cli import main

P_STAR_W1 = 0.23702503069772776


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_solve(out: str) -> dict:
    return dict(line.split(": ", 1) for line in out.strip().splitlines())


def fmt(x: float) -> str:
    return format(x, ".17g")


# --- solve ---------------------------------------------------------------


def test_solve_default_is_certified_symmetric(capsys):
    code, out, err = run_cli(["solve"], capsys)
    assert code == 0
    fields = parse_solve(out)
    assert fields["kind"] == "symmetric"
    assert fields["certified"] == "true"
    assert fields["symmetric"] == "true"
    assert float(fields["p_L"]) == pytest.approx(P_STAR_W1, abs=1e-12)
    assert float(fields["p_R"]) == pytest.approx(1.0 - P_STAR_W1, abs=1e-12)
    assert err == ""


def test_solve_w_zero_matches_closed_form(capsys):
    code, out, _ = run_cli(["solve", "--w", "0"], capsys)
    assert code == 0
    fields = parse_solve(out)
    assert float(fields["delta"]) == pytest.approx(
        delta_at_zero(ModelParams(w=0.0)), abs=1e-10
    )


def test_solve_autoselects_symmetric_on_tilted_locus(capsys):
    code, out, _ = run_cli(["solve", "--w", "1", "--mu-i", "1", "--mu-v", "-1"], capsys)
    assert code == 0
    fields = parse_solve(out)
    assert fields["kind"] == "symmetric"
    assert fields["symmetric"] == "true"


def test_solve_autoselects_asymmetric_off_locus(capsys):
    code, out, _ = run_cli(["solve", "--mu-i", "0.65"], capsys)
    assert code == 0
    fields = parse_solve(out)
    assert fields["kind"] == "asymmetric"
    assert fields["symmetric"] == "false"
    assert fields["certified"] == "true"


def test_solve_below_bound_warns_on_stderr(capsys):
    code, out, err = run_cli(["solve", "--sigma-v", "0.05"], capsys)
    assert code == 0
    assert parse_solve(out)["certified"] == "true"
    assert err.startswith("warning: ")
    assert "unimodality bound" in err


def test_a_below_bound_solve_that_fails_prints_its_warning_before_the_error(capsys, monkeypatch):
    # no real input fails below the bound once the solve has warned, so the
    # solve after the warning is patched to raise; this is also the test of
    # the SolverError -> exit 3 mapping
    def fail(*args):
        raise ConvergenceError("patched")

    monkeypatch.setattr(polarsolve.solver, "_solve_asymmetric_at", fail)
    code, out, err = run_cli(["solve", "--sigma-v", "0.08", "--mu-v", "0.3"], capsys)
    assert code == 3
    assert out == ""
    warning, error = err.splitlines()
    assert warning.startswith("warning: sigma_v=0.08 is below the unimodality bound")
    assert error == "error: no-convergence: patched"


def test_solve_rejects_negative_w(capsys):
    code, _, err = run_cli(["solve", "--w", "-1"], capsys)
    assert code == 2
    assert err.startswith("error: invalid-params:")


def test_solve_rejects_a_noise_scale_that_overflows(capsys):
    code, out, err = run_cli(["solve", "--w", "1e200"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid-params: noise scale")


def test_unknown_flag_is_an_args_error(capsys):
    code, _, err = run_cli(["solve", "--frobnicate", "1"], capsys)
    assert code == 2
    assert err.startswith("error: invalid-args:")


def test_missing_command_is_an_args_error(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 2
    assert err.startswith("error: invalid-args:")


# --- sweep ---------------------------------------------------------------


def test_sweep_csv_contract(capsys):
    code, out, err = run_cli(
        ["sweep", "--w-min", "0", "--w-max", "1", "--w-steps", "5"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "w,p_L,p_R,delta,pr_L,dpL_dw_analytic,dpL_dw_fd,soc_L,soc_R,certified"
    assert len(lines) == 6
    ws = [row.split(",")[0] for row in lines[1:]]
    assert ws == ["0", "0.25", "0.5", "0.75", "1"]
    assert all(row.endswith(",true") for row in lines[1:])
    assert "certified 5/5 rows" in err


def test_sweep_out_file_matches_stdout(tmp_path, capsys):
    argv = ["sweep", "--w-min", "0", "--w-max", "1", "--w-steps", "5"]
    _, stdout_text, _ = run_cli(argv, capsys)
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(argv + ["--out", str(target)], capsys)
    assert code == 0
    assert out == ""  # everything went to the file
    assert target.read_text(encoding="utf-8") == stdout_text


def test_sweep_off_locus_fails_certification_threshold(capsys):
    # fixed mu_v=0.3 is off the symmetry locus at every w, so every
    # symmetric row degrades to NaN and the 95% gate trips
    code, out, err = run_cli(
        ["sweep", "--mu-v", "0.3", "--w-min", "0", "--w-max", "1", "--w-steps", "5"],
        capsys,
    )
    assert code == 1
    assert "certified 0/5 rows" in err
    body = out.splitlines()[1:]
    assert all(row.split(",")[1] == "nan" for row in body)
    assert all(row.endswith(",false") for row in body)


def test_sweep_asymmetric_mode_has_no_analytic_column(capsys):
    code, out, _ = run_cli(
        [
            "sweep", "--mode", "asymmetric", "--mu-i", "1", "--mu-v", "-1",
            "--w-min", "0.5", "--w-max", "1.5", "--w-steps", "3",
        ],
        capsys,
    )
    assert code == 0
    for row in out.splitlines()[1:]:
        cells = row.split(",")
        assert cells[5] == "nan"  # dpL_dw_analytic: symmetric manifold only
        assert cells[6] != "nan"  # the FD column still solves
        assert cells[9] == "true"


def test_sweep_rejects_degenerate_bounds(capsys):
    code, _, err = run_cli(["sweep", "--w-min", "2", "--w-max", "1"], capsys)
    assert code == 2
    assert err.startswith("error: invalid-params:")


# --- locus ---------------------------------------------------------------


def test_locus_csv_values(capsys):
    code, out, err = run_cli(["locus", "--w-list", "1", "--mu-i-steps", "3"], capsys)
    assert code == 0
    assert out.splitlines() == ["w,mu_i,mu_v", "1,0,1", "1,0.5,0", "1,1,-1"]
    assert "symmetry check" in err


def test_locus_default_w_list(capsys):
    code, out, _ = run_cli(["locus", "--mu-i-steps", "2"], capsys)
    assert code == 0
    assert out.splitlines()[1:] == [
        "0.5,0,0.5", "0.5,1,-0.5", "1,0,1", "1,1,-1", "2,0,2", "2,1,-2",
    ]


def test_locus_rejects_malformed_w_list(capsys):
    code, _, err = run_cli(["locus", "--w-list", "1,abc"], capsys)
    assert code == 2
    assert err.startswith("error: invalid-args: --w-list")


# --- verify --------------------------------------------------------------


def test_verify_single_check(capsys):
    code, out, _ = run_cli(["verify", "--only", "prop3-delta0"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("prop3-delta0: PASS (")
    assert lines[-1] == "PASS: 1/1 checks passed"


def test_verify_comma_separated_only(capsys):
    code, out, _ = run_cli(["verify", "--only", "prop3-delta0,prop3-limit"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "PASS: 2/2 checks passed"


def test_verify_cli_roundtrip_keeps_stderr_empty(capsys):
    # the check runs a nested sweep, whose row tally must not leak
    code, out, err = run_cli(["verify", "--only", "cli-roundtrip"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "PASS: 1/1 checks passed"
    assert err == ""


def test_verify_unknown_check_id(capsys):
    code, _, err = run_cli(["verify", "--only", "prop9-nope"], capsys)
    assert code == 2
    assert err.startswith("error: invalid-args:")
    assert "unknown check id" in err


def test_verify_an_empty_selection_is_an_args_error(capsys):
    code, out, err = run_cli(["verify", "--only", ","], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid-args:")


def test_verify_is_seed_reproducible(capsys):
    argv = ["verify", "--only", "prop4-locus", "--seed", "5"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    # identical up to the wall-clock duration stamp
    strip = lambda text: re.sub(r"\(\d+\.\d\ds\)", "(_)", text)
    assert strip(first) == strip(second)


# --- empirical -----------------------------------------------------------


def write_scores(tmp_path, text: str):
    path = tmp_path / "scores.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_empirical_per_year_polarization(tmp_path, capsys):
    path = write_scores(
        tmp_path,
        "year,party,score\n"
        "2000,L,-0.5\n"
        "2000,L,-0.25\n"
        "2000,R,0.25\n"
        "2000,R,0.75\n"
        "1996,L,-0.5\n"
        "1996,R,0.5\n",
    )
    code, out, err = run_cli(["empirical", str(path)], capsys)
    assert code == 0
    assert out == "year,polarization\n1996,1\n2000,0.875\n"  # sorted by year
    assert err == ""


def test_empirical_identical_means_and_fractions(tmp_path, capsys):
    path = write_scores(
        tmp_path,
        "year,party,score\n"
        "2020,L,0.3\n"
        "2020,R,0.3\n"
        "2024,L,0\n"
        "2024,R,0.9\n",
    )
    code, out, _ = run_cli(["empirical", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[1] == "2020,0"
    # 17 significant digits: 0.9 prints as its exact double
    assert out.splitlines()[2] == f"2024,{fmt(0.9)}"


def test_empirical_skips_one_party_years_with_warning(tmp_path, capsys):
    path = write_scores(
        tmp_path,
        "year,party,score\n1992,L,-0.4\n1996,L,-0.5\n1996,R,0.5\n",
    )
    code, out, err = run_cli(["empirical", str(path)], capsys)
    assert code == 0
    assert out == "year,polarization\n1996,1\n"
    assert "warning: year 1992 has no party-R members; skipped" in err


def test_empirical_missing_column_names_it(tmp_path, capsys):
    path = write_scores(tmp_path, "year,party\n2000,L\n")
    code, _, err = run_cli(["empirical", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: invalid-input:")
    assert "missing column 'score'" in err


def test_empirical_rejects_unknown_party(tmp_path, capsys):
    path = write_scores(tmp_path, "year,party,score\n2000,X,0.1\n")
    code, _, err = run_cli(["empirical", str(path)], capsys)
    assert code == 2
    assert ":2:" in err and "party" in err


def test_empirical_rejects_unparsable_score(tmp_path, capsys):
    path = write_scores(tmp_path, "year,party,score\n2000,L,high\n")
    code, _, err = run_cli(["empirical", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: invalid-input:") and ":2:" in err


@pytest.mark.parametrize("score, line", [("nan", 3), ("inf", 4), ("-inf", 5)])
def test_empirical_rejects_a_non_finite_score(tmp_path, capsys, score, line):
    rows = ["2000,L,-0.5", "2000,R,0.5", "2004,L,-0.25", "2004,R,0.25"]
    rows.insert(line - 2, f"2004,R,{score}")
    path = write_scores(tmp_path, "year,party,score\n" + "\n".join(rows) + "\n")
    code, out, err = run_cli(["empirical", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: invalid-input: {path}:{line}: score must be finite, got {score!r}\n"


def test_empirical_missing_file(tmp_path, capsys):
    code, _, err = run_cli(["empirical", str(tmp_path / "nope.csv")], capsys)
    assert code == 2
    assert err.startswith("error: invalid-input: cannot read")


# --- config file ---------------------------------------------------------


def write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc, encoding="utf-8")
    return str(path)


def test_config_precedence_flag_config_default(tmp_path, capsys):
    cfg = write_config(tmp_path, {"params": {"w": 2.0, "sigma_v": 2.0}})
    code, out, _ = run_cli(["solve", "--config", cfg, "--w", "3"], capsys)
    assert code == 0
    # flag w=3 beats config w=2; config sigma_v=2 beats default 1; V stays 1
    expected = solve_symmetric(ModelParams(w=3.0, sigma_v=2.0)).platforms.p_L
    assert parse_solve(out)["p_L"] == fmt(expected)


def test_config_unknown_top_level_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"paramz": {}})
    code, _, err = run_cli(["solve", "--config", cfg], capsys)
    assert code == 2
    assert err.startswith("error: invalid-config: unknown config key(s): paramz")


def test_config_unknown_params_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"params": {"gamma": 1.0}})
    code, _, err = run_cli(["solve", "--config", cfg], capsys)
    assert code == 2
    assert "unknown params key(s): gamma" in err


def test_config_rejects_the_removed_bracket_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, {"solver": {"bracket_lo": -0.5}})
    code, _, err = run_cli(["solve", "--config", cfg], capsys)
    assert code == 2
    assert err.startswith("error: invalid-config: unknown solver key(s): bracket_lo")


def test_config_rejects_an_infinite_tolerance(tmp_path, capsys):
    # json.dumps writes inf as the JSON extension Infinity, which the
    # reader accepts; the solver config must reject it
    cfg = write_config(tmp_path, {"solver": {"tol_fp": math.inf}})
    code, out, err = run_cli(
        ["solve", "--w", "1", "--mu-i", "0.3", "--mu-v", "0.1", "--config", cfg], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid-params:")


def test_config_malformed_json(tmp_path, capsys):
    cfg = write_config(tmp_path, "{not json")
    code, _, err = run_cli(["solve", "--config", cfg], capsys)
    assert code == 2
    assert err.startswith("error: invalid-config: malformed JSON")


def test_config_root_must_be_object(tmp_path, capsys):
    cfg = write_config(tmp_path, "[1, 2]")
    code, _, err = run_cli(["solve", "--config", cfg], capsys)
    assert code == 2
    assert "config root must be a JSON object" in err


def test_config_uncoercible_value(tmp_path, capsys):
    cfg = write_config(tmp_path, {"params": {"w": "fast"}})
    code, _, err = run_cli(["solve", "--config", cfg], capsys)
    assert code == 2
    assert err.startswith("error: invalid-config: bad config value")


@pytest.mark.parametrize(
    "command, doc",
    [
        ("solve", {"params": {"w": True}}),
        ("solve", {"params": {"sigma_v": False}}),
        ("solve", {"solver": {"tol_root": True}}),
        ("solve", {"solver": {"max_iter": 2.7}}),
        ("solve", {"solver": {"max_iter": True}}),
        ("solve", {"seed": 1.5}),
        ("solve", {"seed": True}),
        ("sweep", {"w_steps": 5.9}),
        ("sweep", {"w_max": True}),
        ("locus", {"mu_i_steps": 3.5}),
        ("locus", {"w_list": [1.0, True]}),
    ],
)
def test_config_rejects_booleans_and_fractional_counts(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli([command, "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid-config:")


@pytest.mark.parametrize(
    "command, doc",
    [
        ("locus", {"out": 5, "w_list": [1]}),
        ("solve", {"out": ["a.csv"]}),
        ("sweep", {"mode": 5}),
        ("sweep", {"mode": None}),
        ("verify", {"only": 5}),
        ("verify", {"only": ["deriv-fd", 3]}),
        ("verify", {"only": {"id": "deriv-fd"}}),
    ],
)
def test_config_rejects_non_string_text_values(tmp_path, capsys, monkeypatch, command, doc):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli([command, "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid-config:")
    assert not (tmp_path / "5").exists()


@pytest.mark.parametrize(
    "command, doc",
    [
        ("locus", {"w_list": "12"}),
        ("locus", {"w_list": {"1": 0, "2": 0}}),
        ("solve", {"params": {"w": "2"}}),
        ("solve", {"seed": "7"}),
        ("solve", {"w_list": "12"}),
    ],
)
def test_config_rejects_a_value_of_the_wrong_json_kind(tmp_path, capsys, command, doc):
    # each was once coerced ("12" to w = 1, 2, a dict to its keys, "2" to 2.0),
    # or, for a key that only another command uses, never read
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli([command, "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid-config:")


def test_config_accepts_integral_floats_for_counts(tmp_path, capsys):
    cfg = write_config(tmp_path, {"w_steps": 3.0, "seed": 7.0})
    code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
    assert code == 0
    assert len(out.splitlines()) == 4


# each command takes only the model flags it reads: the sweep's grid sets w,
# and each locus row sets w, mu_i and mu_v; verify and empirical read none,
# and only verify reads --seed.  No flag may be abbreviated, so that
# `locus --w` is not read as `--w-list`
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--w-steps", "3", "--w", "7"],
        ["locus", "--w-list", "1", "--w", "7"],
        ["locus", "--mu-i", "0.9"],
        ["locus", "--mu-v", "3"],
        ["locus", "--w", "7"],
        ["verify", "--only", "prop3-delta0", "--V", "3"],
        ["empirical", "scores.csv", "--sigma-v", "2"],
        ["solve", "--seed", "3"],
        ["sweep", "--w-st", "3"],
    ],
    ids=" ".join,
)
def test_a_flag_the_command_does_not_read_is_an_args_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid-args: unrecognized arguments: ")
    assert len(err.splitlines()) == 1


def test_the_config_params_stay_shared_by_every_command(tmp_path, capsys):
    # the file's params section is read by the commands that use it and
    # accepted by the ones that do not
    cfg = write_config(tmp_path, {"params": {"w": 7.0, "V": 2.0, "mu_i": 0.9, "mu_v": 3.0}})
    scores = write_scores(tmp_path, "year,party,score\n2000,L,-0.5\n2000,R,0.5\n")
    for argv in (
        ["solve"],
        ["sweep", "--w-steps", "3", "--mode", "asymmetric"],
        ["locus", "--w-list", "1", "--mu-i-steps", "2"],
        ["verify", "--only", "prop3-limit"],
        ["empirical", str(scores)],
    ):
        code, out, err = run_cli([*argv, "--config", cfg], capsys)
        assert code == 0, (argv, err)
        assert out


def test_config_missing_file(tmp_path, capsys):
    code, _, err = run_cli(["solve", "--config", str(tmp_path / "ghost.json")], capsys)
    assert code == 2
    assert err.startswith("error: invalid-config: cannot read config file")


def test_config_out_is_overridden_by_flag(tmp_path, capsys):
    config_target = tmp_path / "from_config.csv"
    flag_target = tmp_path / "from_flag.csv"
    cfg = write_config(tmp_path, {"out": str(config_target)})
    argv = ["locus", "--config", cfg, "--w-list", "1", "--mu-i-steps", "2",
            "--out", str(flag_target)]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert flag_target.exists()
    assert not config_target.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("target", ["a directory", "a missing parent"])
def test_an_unwritable_out_is_an_args_error(tmp_path, capsys, source, target):
    out = str(tmp_path if target == "a directory" else tmp_path / "ghost" / "out.txt")
    argv = ["solve", "--out", out]
    if source == "config":
        argv = ["solve", "--config", write_config(tmp_path, {"out": out})]
    code, stdout, err = run_cli(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: invalid-args: cannot write {out}: ")
    assert len(err.splitlines()) == 1


def test_config_solver_section_can_break_convergence(tmp_path, capsys, monkeypatch):
    # the solver section reaches the solve: two steps are too few for the
    # pair Newton, so the off-locus solve ends on the reduced-FOC fallback,
    # which no budget can break, at the default run's platforms
    argv = ["solve", "--mu-i", "0.65"]
    _, default, _ = run_cli(argv, capsys)
    fallbacks = []
    reduced_foc = polarsolve.solver._reduced_foc
    monkeypatch.setattr(
        polarsolve.solver, "_reduced_foc", lambda *args: fallbacks.append(1) or reduced_foc(*args)
    )
    cfg = write_config(tmp_path, {"solver": {"max_iter": 2}})
    code, out, err = run_cli([*argv, "--config", cfg], capsys)
    assert code == 0 and err == "" and fallbacks == [1]
    fields, want = parse_solve(out), parse_solve(default)
    assert fields["certified"] == "true"
    for key in ("p_L", "p_R"):
        assert float(fields[key]) == pytest.approx(float(want[key]), abs=1e-12)


# --- golden stdout -------------------------------------------------------

# Byte-exact stdout of three commands (diagnostics on stderr are not
# compared); a change that moves a byte re-pins it here and records the old
# and new values in CHANGES.md.
GOLDEN_STDOUT = {
    "solve-locus": (
        ["solve"],
        "kind: symmetric\n"
        "p_L: 0.23702503069772773\n"
        "p_R: 0.76297496930227227\n"
        "delta: 0.52594993860454453\n"
        "pr_L: 0.5\n"
        "foc_residual_L: -2.7755575615628914e-17\n"
        "foc_residual_R: 2.7755575615628914e-17\n"
        "soc_L: -1.9902875605484027\n"
        "soc_R: -1.9902875605484032\n"
        "iterations: 1\n"
        "symmetric: true\n"
        "certified: true\n",
    ),
    "solve-asymmetric": (
        ["solve", "--mu-i", "0.3", "--mu-v", "0.1"],
        "kind: asymmetric\n"
        "p_L: 0.22331295107760948\n"
        "p_R: 0.74987068674081114\n"
        "delta: 0.52655773566320163\n"
        "pr_L: 0.55086586711584073\n"
        "foc_residual_L: 2.7755575615628914e-17\n"
        "foc_residual_R: -2.7755575615628914e-17\n"
        "soc_L: -2.0861909871611264\n"
        "soc_R: -1.8795264591761522\n"
        "iterations: 4\n"
        "symmetric: false\n"
        "certified: true\n",
    ),
    "sweep-asymmetric": (
        ["sweep", "--mode", "asymmetric", "--w-steps", "3", "--mu-i", "0.3", "--mu-v", "0.1"],
        "w,p_L,p_R,delta,pr_L,dpL_dw_analytic,dpL_dw_fd,soc_L,soc_R,certified\n"
        "0,0.27878217818000511,0.7407902988598295,0.46200812067982439,"
        "0.4637632374971295,nan,0.034073949476409737,-2.2820187435373125,"
        "-2.4375418185504802,true\n"
        "1.5,0.20198273104159889,0.76669773580324219,0.56471500476164327,"
        "0.56061194064633846,nan,-0.033897560782480962,-1.9476983033897901,"
        "-1.7043095780001218,true\n"
        "3,0.17124729393332996,0.79446901930316927,0.62322172536983933,"
        "0.57037394592655977,nan,-0.012274083743962771,-1.7677858980567422,"
        "-1.4872134390568705,true\n",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_stdout_is_byte_identical_to_the_golden_output(capsys, name):
    argv, expected = GOLDEN_STDOUT[name]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == expected


# the asymmetric cases on the reduced-FOC fallback, forced: the solve lands
# one ulp of p_L from the pair Newton's point, in 4 evaluations; the sweep
# keeps the pair Newton's rows and moves the last digits of two FD slopes
GOLDEN_FALLBACK_STDOUT = {
    "solve-asymmetric": GOLDEN_STDOUT["solve-asymmetric"][1].replace(
        "p_L: 0.22331295107760948\n", "p_L: 0.22331295107760951\n"
    ).replace("foc_residual_L: 2.7755575615628914e-17\n", "foc_residual_L: 0\n"),
    "sweep-asymmetric": GOLDEN_STDOUT["sweep-asymmetric"][1].replace(
        ",0.034073949476409737,", ",0.034073949476687293,"
    ).replace(",-0.033897560782480962,", ",-0.03389756078261974,"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FALLBACK_STDOUT))
def test_reduced_foc_fallback_stdout_is_byte_identical_to_its_golden_output(
    capsys, monkeypatch, name
):
    monkeypatch.setattr(polarsolve.solver, "_pair_newton", lambda *args: None)
    expected = GOLDEN_FALLBACK_STDOUT[name]
    assert expected != GOLDEN_STDOUT[name][1]
    code, out, _ = run_cli(GOLDEN_STDOUT[name][0], capsys)
    assert code == 0
    assert out == expected


# --- process-level smoke test ---------------------------------------------


def run_module(*argv):
    """``python -m polarsolve`` in a child that imports the same package this
    process is testing, with Python's default warning filters."""
    src = str(Path(polarsolve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "polarsolve", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entrypoint_subprocess():
    proc = run_module("solve", "--w", "0")
    assert proc.returncode == 0
    assert "certified: true" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--sigma-v", "0.08", "--w-steps", "5"],
        ["sweep", "--mode", "asymmetric", "--sigma-v", "0.08", "--w-steps", "5"],
        ["locus", "--sigma-v", "0.08", "--w-list", "1", "--mu-i-steps", "5"],
    ],
    ids=["sweep", "sweep-asymmetric", "locus"],
)
def test_a_below_bound_command_prints_its_warning_once(argv):
    # one "warning:" line for the whole command, not Python's two-line
    # default format once per solve site
    proc = run_module(*argv)
    assert proc.returncode == 0
    warnings = [line for line in proc.stderr.splitlines() if line.startswith("warning: ")]
    assert len(warnings) == 1
    assert warnings[0].startswith("warning: sigma_v=0.08 is below the unimodality bound")
    assert "SinglePeakednessWarning:" not in proc.stderr
