import argparse
import json
from pathlib import Path

import pytest

from tribvp import cli, grid, validate_hypotheses
from tribvp.cli import build_parser, main
from tribvp.config import parse_run_config
from tribvp.errors import ConfigError
from tribvp.functions import RationalSigmoid
from tribvp.runner import parse_axes, run, sweep

from conftest import make_sigmoid_problem

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SIGMOID = str(CONFIG_DIR / "sigmoid.json")
EXP = str(CONFIG_DIR / "exp_piecewise.json")


def read_report(out_dir) -> dict:
    with open(Path(out_dir) / "report.json") as fh:
        return json.load(fh)


def test_constants_mode_exp_problem(tmp_path):
    assert main(["constants", "--config", EXP, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path)
    assert rep["constants"]["gamma"] == {"decimal": 0.25, "fraction": "1/4"}
    assert rep["constants"]["m"]["fraction"] == "4/25"
    assert rep["constants"]["delta"]["fraction"] == "1/8"
    assert rep["certificate"] is None
    assert "timing" in rep


def test_certify_mode_sigmoid(tmp_path):
    assert main(["certify", "--config", SIGMOID, "--out", str(tmp_path), "--no-timing"]) == 0
    rep = read_report(tmp_path)
    assert rep["certificate"]["verdict"] is True
    assert rep["constants"]["gamma"]["fraction"] == "1/4"
    assert rep["constants"]["m"]["fraction"] == "1/3"
    assert rep["constants"]["delta"]["fraction"] == "4/45"
    assert rep["thresholds_source"] == "config"
    assert "timing" not in rep


def test_certify_threshold_overrides_can_fail(tmp_path):
    code = main(
        ["certify", "--config", SIGMOID, "--out", str(tmp_path), "--a", "1/120", "--b", "2", "--c", "100"]
    )
    assert code == 4
    rep = read_report(tmp_path)
    assert rep["certificate"]["verdict"] is False
    assert rep["certificate"]["d3"]["holds"] is False


def test_partial_threshold_overrides_rejected(tmp_path):
    assert main(["certify", "--config", SIGMOID, "--out", str(tmp_path), "--a", "1/120"]) == 2


def test_certify_searches_when_thresholds_absent(tmp_path):
    doc = json.loads(Path(SIGMOID).read_text())
    del doc["thresholds"]
    cfg_path = tmp_path / "no_thresholds.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["certify", "--config", str(cfg_path), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["thresholds_source"] == "searched"
    assert rep["certificate"]["verdict"] is True
    tt = rep["thresholds"]
    assert 0 < float(tt["a"]) < float(tt["b"]) <= float(tt["d"]) <= float(tt["c"])


def test_bad_axis_spec_is_config_error(tmp_path):
    assert main(["sweep", "--config", SIGMOID, "--out", str(tmp_path), "--axis", "T:1:2:3"]) == 2
    assert main(["sweep", "--config", SIGMOID, "--out", str(tmp_path), "--axis", "beta:x:2:3"]) == 2


@pytest.mark.parametrize("spec", ["beta:0.1:inf:3", "beta:nan:0.9:3", "alpha:-inf:1:2"])
def test_non_finite_axis_bound_is_config_error(tmp_path, capsys, spec):
    out = tmp_path / "out"
    assert main(["sweep", "--config", SIGMOID, "--out", str(out), "--axis", spec]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: axis bounds must be finite numbers, got {spec!r}\n"
    assert not out.exists()


def test_an_axis_given_twice_is_config_error(tmp_path, capsys):
    # a row holds one value per axis name, so the second beta axis would hide the first
    out = tmp_path / "out"
    assert main(["sweep", "--config", SIGMOID, "--out", str(out), "--axis", "beta:0.1:0.2:2", "--axis", "beta:0.5:0.6:2"]) == 2
    assert capsys.readouterr().err == "config error: sweep axis 'beta' is given more than once\n"
    assert not (out / "sweep.csv").exists()


def test_hypothesis_violation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "problem": {
                    "T": 1,
                    "eta": "1/3",
                    "alpha": 20,
                    "beta": "1/2",
                    "f": {"kind": "autonomous-rational-sigmoid", "params": [40]},
                }
            }
        )
    )
    assert main(["constants", "--config", str(bad), "--out", str(tmp_path / "out")]) == 3
    rep = read_report(tmp_path / "out")
    assert rep["hypothesis"]["h2_alpha_ok"] is False
    assert any("alpha" in m for m in rep["hypothesis"]["messages"])


def test_config_errors_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["constants", "--config", str(missing), "--out", str(tmp_path)]) == 2

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["constants", "--config", str(bad_json), "--out", str(tmp_path)]) == 2

    even_grid = tmp_path / "grid.json"
    doc = json.loads(Path(SIGMOID).read_text())
    doc["grid_n"] = 64
    even_grid.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(even_grid), "--out", str(tmp_path)]) == 2

    # grid_n is the only solver option and must be an odd int, not a float or a truncated half;
    # tolerances, budgets and the search grid are constants a document cannot set or loosen;
    # thresholds are finite and positive (their ordering is a certify verdict, exit 4);
    # a number beyond float range names its field
    problem = json.loads(Path(SIGMOID).read_text())["problem"]
    for mode, section, *message in (
        ("solve", {"solver": {"picard_max_iter": 500.0}}),
        ("certify", {"solver": {"search_per_axis": 13.0}}),
        ("certify", {"solver": {"search_per_axis": 0}}),
        ("solve", {"solver": {"grid_n": 2049.5}}),
        ("solve", {"solver": {"residual_tol": 1.0}}),
        ("solve", {"solver": {"ode_c2": 1e6}}),
        ("solve", {"solver": {"dedup_tol": 0.5}}),
        ("constants", {"solver": {"h1_u_max": 1}}),
        ("solve", {"solver": [1]}),
        ("certify", {"thresholds": {"a": 0, "b": 2, "c": 124}}),
        ("certify", {"thresholds": {"a": -1, "b": 2, "c": 124}}),
        ("certify", {"thresholds": {"a": float("nan"), "b": 2, "c": 124}}),
        ("solve", {"thresholds": {"a": "1/120", "b": 0, "c": 124}}),
        ("certify", {"thresholds": {"a": "1/120", "b": 2, "c": -5}}),
        ("certify", {"thresholds": {"a": "1/120", "b": 2, "c": float("inf")}}),
        ("certify", {"thresholds": {"a": "1/120", "b": 2, "c": "1e400"}}, "thresholds.c"),
        ("constants", {"problem": {**problem, "T": "1e400"}}, "problem.T"),
        ("constants", {"problem": {**problem, "f": {**problem["f"], "params": ["1e400"]}}}, "f.params[0] = '1e400' is beyond float range"),
        ("certify", {"thresholds": "abc"}),
        ("constants", {"problem": "T eta alpha beta f"}, "'problem' section is an object"),
        ("constants", {"problem": ["T", "eta", "alpha", "beta", "f"]}, "'problem' section is an object"),
        ("solve", {"solver": {"grid_n": 2049}, "grid_n": 65}, "grid_n is set twice", "solver.grid_n"),
    ):
        bad = tmp_path / "bad_option.json"
        bad.write_text(json.dumps({**json.loads(Path(SIGMOID).read_text()), **section}))
        assert main([mode, "--config", str(bad), "--out", str(tmp_path)]) == 2, section
        err = capsys.readouterr().err
        assert all(m in err for m in message), err

    # f documents of the wrong shape, or branches with the wrong parameter count, are config errors
    tail = {"until": None, "form": "constant", "params": [1]}
    # a rational branch whose pole is its left breakpoint, with exact and with float parameters
    line = {"until": 2, "form": "linear", "params": [1, 0]}
    pole_at_breakpoint = [
        {"kind": "piecewise", "pieces": [line, {"until": None, "form": "rational-linear", "params": params}]}
        for params in ([3, 2, 1, -2], [3, 2, 1.5, -3])
    ]
    for f_doc in (
        {"kind": "constant", "params": 5},
        {"kind": "piecewise", "pieces": "x"},
        {"kind": "piecewise", "pieces": [5]},
        {"kind": "piecewise", "pieces": [{"until": None, "form": "constant"}]},
        {"kind": "piecewise", "pieces": [{"until": 1, "form": "linear", "params": [1]}, tail]},
        {"kind": "piecewise", "pieces": [{"until": 1, "form": "linear", "params": [1, 0, 7]}, tail]},
        {"kind": "piecewise", "pieces": [{"until": None, "form": "rational-linear", "params": [1, 0, 1]}]},
        {"kind": "piecewise", "pieces": [{"until": None, "form": ["linear"], "params": [1, 0]}]},
        {"kind": "product", "time": {"kind": "exp-decay", "params": 1}, "u": {"kind": "constant", "params": [1]}},
        *pole_at_breakpoint,
    ):
        bad = tmp_path / "bad_f.json"
        bad.write_text(json.dumps({"problem": {**problem, "f": f_doc}}))
        assert main(["constants", "--config", str(bad), "--out", str(tmp_path)]) == 2, f_doc
        err = capsys.readouterr().err
        if f_doc in pole_at_breakpoint:
            assert "config error: rational-linear branch on [2, None] has a pole" in err, err

    # f is defined for u >= 0 only: a breakpoint at or below 0 is named, before a pole beyond it is sought
    for until, first in (
        ("-2", {"form": "rational-linear", "params": [1, 0, 1, 1]}),
        ("-1", {"form": "linear", "params": [0, 1]}),
        ("0", {"form": "linear", "params": [1, 1]}),
    ):
        pieces = [{"until": until, **first}, {"until": None, "form": "constant", "params": [1 if until != "-2" else 2]}]
        bad = tmp_path / "bad_breakpoint.json"
        bad.write_text(json.dumps({"problem": {**problem, "f": {"kind": "piecewise", "pieces": pieces}}}))
        assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 2, until
        err = capsys.readouterr().err
        assert f"config error: f.pieces[0].until = {until} is not positive" in err, err

    # f is -1 at u = 0.115, between the points any coarse sample would take
    dip = tmp_path / "dip.json"
    doc = json.loads(Path(SIGMOID).read_text())
    doc["problem"]["f"] = {"kind": "piecewise-linear-table", "params": [0, 1, "1/10", 1, "23/200", -1, "13/100", 1, 10, 1]}
    dip.write_text(json.dumps(doc))
    assert main(["constants", "--config", str(dip), "--out", str(tmp_path)]) == 2


def test_unreadable_config_documents_exit_2(tmp_path, capsys):
    # JSON is UTF-8, and a document nested too deep for the parser is malformed, not a crash
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(Path(SIGMOID).read_text().replace('"problem"', '"probl\u00e8me"').encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for bad, cause in ((not_utf8, "utf-8"), (deep, "recursion")):
        for mode in ("constants", "solve"):
            assert main([mode, "--config", str(bad), "--out", str(tmp_path)]) == 2, (bad, mode)
            err = capsys.readouterr().err
            assert "config error:" in err and cause in err, err


def test_readme_configuration_example_parses(tmp_path):
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    example = section.split("```json", 1)[1].split("```", 1)[0]
    cfg = parse_run_config(json.loads(example), "solve", tmp_path)
    assert cfg.grid_n == 2049 and cfg.thresholds.c == 124


def test_reports_are_deterministic(tmp_path):
    out = tmp_path / "r"
    blobs = []
    for _ in range(2):
        assert main(["certify", "--config", SIGMOID, "--out", str(out), "--no-timing"]) == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_solve_outputs_are_deterministic(tmp_path):
    for config in (SIGMOID, EXP):
        out = tmp_path / Path(config).stem
        runs = []
        for _ in range(2):
            assert main(["solve", "--config", config, "--out", str(out), "--no-timing"]) == 0
            runs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert any(name.startswith("solution_") for name in runs[0])
        assert runs[0] == runs[1]


def test_report_config_roundtrip(tmp_path):
    cfg = parse_run_config(json.loads(Path(SIGMOID).read_text()), "certify", tmp_path, include_timing=False)
    outcome = run(cfg)
    echoed = outcome.report["config"]
    cfg2 = parse_run_config(echoed, echoed["mode"], echoed["output_dir"], include_timing=False)
    assert cfg2 == cfg


def test_solve_mode_writes_solution_curves(tmp_path):
    cfg_doc = json.loads(Path(EXP).read_text())
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out), "--grid", "1025", "--no-timing"]) == 0
    rep = read_report(out)
    assert rep["solutions"], "at least one solution expected"
    for summary in rep["solutions"]:
        csv_path = out / summary["file"]
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,u"
        assert len(lines) == 1 + 1025


def test_sweep_lambda_strictly_decreasing_in_beta(tmp_path):
    code = main(
        ["sweep", "--config", SIGMOID, "--out", str(tmp_path), "--axis", "beta:0.1:0.9:9"]
    )
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "beta,lambda,gamma,m,delta,verdict"
    lams = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(lams) == 9
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_sweep_single_point_matches_constants_report(tmp_path):
    assert main(["constants", "--config", EXP, "--out", str(tmp_path / "c")]) == 0
    rep = read_report(tmp_path / "c")
    assert main(["sweep", "--config", EXP, "--out", str(tmp_path / "s"), "--axis", "beta:1:1:1"]) == 0
    line = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1]
    beta, lam, gamma, m, delta, verdict = line.split(",")
    assert float(lam) == rep["constants"]["lambda"]["decimal"]
    assert float(gamma) == rep["constants"]["gamma"]["decimal"]
    assert float(m) == rep["constants"]["m"]["decimal"]
    assert float(delta) == rep["constants"]["delta"]["decimal"]
    assert verdict == "true"


def test_sweep_flags_inadmissible_rows(tmp_path):
    # alpha = 7 keeps beta = 1/2 admissible; alpha = 18 sits on its own bound
    code = main(
        ["sweep", "--config", SIGMOID, "--out", str(tmp_path), "--axis", "alpha:7:18:2"]
    )
    assert code == 0
    text = (tmp_path / "sweep.csv").read_text()
    lines = text.splitlines()
    assert lines[1].split(",")[-1] in ("true", "false")
    assert lines[2].split(",")[-1] == "H2-fail"
    assert text.endswith("\n")


def test_sweep_writes_a_row_whose_problem_cannot_be_built_as_error(tmp_path, capsys):
    # eta = T = 1 leaves no three-point problem: with_params raises, the row keeps only its axis value,
    # and stderr says why
    assert main(["sweep", "--config", SIGMOID, "--out", str(tmp_path), "--axis", "eta:0.5:1:2"]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1].split(",")[-1] in ("true", "false")
    assert lines[2] == "1,,,,,error"
    assert capsys.readouterr().err == "row 2 (eta=1): eta must lie strictly inside (0, T), got 1.0\n"


@pytest.mark.parametrize("spec, calls", [("alpha:7:18:2", 3), ("alpha:18:19:2", 0)])
def test_sweep_rows_bound_f_only_in_their_certificate(tmp_path, monkeypatch, spec, calls):
    # T and f are the same in every row, so no row repeats the f >= 0 check: an admissible row
    # (alpha = 7) bounds f once in each of D1-D3, an H2-fail row (alpha >= 18) not at all
    cfg = parse_run_config(json.loads(Path(SIGMOID).read_text()), "sweep", tmp_path)
    boxes = []
    range_of = type(cfg.problem.f).range
    monkeypatch.setattr(type(cfg.problem.f), "range", lambda f, *box: boxes.append(box) or range_of(f, *box))
    sweep(cfg, parse_axes([spec]))
    assert len(boxes) == calls


def test_sweep_without_thresholds_writes_an_empty_verdict(tmp_path):
    doc = json.loads(Path(SIGMOID).read_text())
    del doc["thresholds"]
    config = tmp_path / "no_thresholds.json"
    config.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o"), "--axis", "beta:0.1:0.9:2"]) == 0
    rows = [line.split(",") for line in (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2
    assert all(row[-1] == "" and all(row[:-1]) for row in rows)  # constants written, verdict empty


def test_certify_without_certifiable_thresholds_exits_4_and_echoes_each_factor(tmp_path, capsys):
    f = {"kind": "product", "time": {"kind": "constant", "params": ["1/2"]}, "u": {"kind": "constant", "params": [3]}}
    config = tmp_path / "product.json"
    config.write_text(json.dumps({"problem": {**json.loads(Path(SIGMOID).read_text())["problem"], "f": f}}))
    assert main(["certify", "--config", str(config), "--out", str(tmp_path / "o"), "--no-timing"]) == 4
    assert capsys.readouterr().err == "no certifiable thresholds found\n"
    rep = read_report(tmp_path / "o")
    assert rep["certificate"] is None and "thresholds" not in rep
    # a constant factor is the degree-0 polynomial, in t (PolynomialT) as in u (PolynomialU)
    assert rep["config"]["problem"]["f"] == {
        "kind": "product",
        "time": {"kind": "polynomial", "params": ["1/2"]},
        "u": {"kind": "polynomial", "params": ["3"]},
    }


def test_a_zero_time_factor_times_a_negative_u_factor_fails_h1(tmp_path, capsys):
    # the whole f, 0 * (-1), is bounded at construction and loads; H1 then finds it vanishing (exit 3)
    f = {"kind": "product", "time": {"kind": "constant", "params": [0]}, "u": {"kind": "constant", "params": [-1]}}
    config = tmp_path / "zero.json"
    config.write_text(json.dumps({"problem": {**json.loads(Path(SIGMOID).read_text())["problem"], "f": f}}))
    assert main(["certify", "--config", str(config), "--out", str(tmp_path / "o"), "--no-timing"]) == 3
    assert "vanishes identically" in capsys.readouterr().err


def test_a_grid_above_the_largest_is_a_config_error(tmp_path, capsys):
    # refused before anything is allocated; the largest grid itself is accepted (and not run here)
    doc = json.loads(Path(SIGMOID).read_text())
    assert parse_run_config(doc, "solve", tmp_path, grid_n=65537).grid_n == 65537
    with pytest.raises(ConfigError, match="grid_n = 65539 is above the largest grid, 65537"):
        parse_run_config(doc, "solve", tmp_path, grid_n=65539)
    out = tmp_path / "out"
    assert main(["solve", "--config", SIGMOID, "--out", str(out), "--grid", "65539"]) == 2
    assert "above the largest grid" in capsys.readouterr().err and not out.exists()


def test_sweep_csv_has_full_precision(tmp_path):
    assert main(["sweep", "--config", SIGMOID, "--out", str(tmp_path), "--axis", "eta:0.3333:0.3333:1"]) == 0
    line = (tmp_path / "sweep.csv").read_text().splitlines()[1]
    lam = line.split(",")[1]
    assert len(lam.replace(".", "").replace("-", "").lstrip("0")) >= 15


def test_solve_survives_an_f_that_overflows(tmp_path, capsys):
    # u^40 overflows to inf on a diverging Picard start; the start is dropped
    doc = json.loads(Path(SIGMOID).read_text())
    del doc["thresholds"]
    doc["problem"]["f"] = {"kind": "polynomial", "params": [0] * 40 + [1]}
    cfg_path = tmp_path / "u40.json"
    cfg_path.write_text(json.dumps(doc))
    code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--no-timing"])
    assert code in (0, 5)
    assert "Traceback" not in capsys.readouterr().err


def test_unusable_out_exits_2(tmp_path, capsys):
    # an existing file where the output directory should be, a directory below a file,
    # or a directory where report.json should be: a config error naming the path, not a traceback
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    blocked = tmp_path / "blocked"
    (blocked / "report.json").mkdir(parents=True)
    for argv, path in (
        (["constants", "--config", EXP, "--out", str(a_file)], a_file),
        (["certify", "--config", SIGMOID, "--out", str(a_file / "sub")], a_file / "sub"),
        (["certify", "--config", SIGMOID, "--out", str(blocked)], blocked / "report.json"),
        (["solve", "--config", SIGMOID, "--out", str(a_file / "sub"), "--grid", "65"], a_file / "sub"),
        (["sweep", "--config", SIGMOID, "--out", str(a_file), "--axis", "beta:0.1:0.9:3"], a_file),
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"config error: cannot write output {path}" in err and "Traceback" not in err, err


def test_build_parser_builds_once_per_process(tmp_path, monkeypatch):
    # a work count, not a timing: the parser and its four subparsers, however many main calls follow
    assert build_parser() is build_parser()
    build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    calls = [
        ["constants", "--config", EXP],
        ["certify", "--config", SIGMOID, "--no-timing"],
        ["certify", "--config", SIGMOID, "--a", "1/120", "--b", "2", "--c", "100"],
        ["sweep", "--config", SIGMOID, "--axis", "beta:0.1:0.9:2"],
        ["solve", "--config", SIGMOID, "--grid", "65", "--no-timing"],
    ]
    for k in range(20):
        assert main([*calls[k % 5], "--out", str(tmp_path / str(k))]) in (0, 4)
    assert len(built) == 5, built


def _run_and_collect(argv, out, capsys):
    """Exit code, stderr and every output file of one main call, with the output directory masked."""
    try:
        code = main([*argv, "--out", str(out), "--no-timing"])
    except SystemExit as exc:
        code = exc.code
    files = {}
    if out.is_dir():
        files = {path.name: path.read_bytes().replace(str(out).encode(), b"<out>") for path in sorted(out.iterdir())}
    return code, capsys.readouterr().err, files


@pytest.mark.parametrize("config", [SIGMOID, EXP], ids=["sigmoid", "exp_piecewise"])
def test_a_shared_parser_carries_nothing_between_calls(config, tmp_path, monkeypatch, capsys):
    # each call with the one parser of the process gives what it gives with a parser of its own
    sequence = [
        ["certify", "--config", config, "--a", "1/120", "--b", "2", "--c", "124"],
        ["certify", "--config", config],
        ["sweep", "--config", config, "--axis", "beta:0.1:0.9:3", "--axis", "eta:0.3:0.6:2"],
        ["sweep", "--config", config, "--axis", "alpha:0.5:1.5:3"],
        ["solve", "--config", config, "--grid", "1025"],
        ["solve", "--config", config],
        ["certify", "--config", config, "--grid", "65"],
        ["constants", "--config", config],
    ]
    shared = [_run_and_collect(argv, tmp_path / f"shared{k}", capsys) for k, argv in enumerate(sequence)]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    fresh = [_run_and_collect(argv, tmp_path / f"fresh{k}", capsys) for k, argv in enumerate(sequence)]
    assert shared[6][0] == 2 and "unrecognized arguments: --grid" in shared[6][1]
    assert all(files for _, _, files in shared[:6] + shared[7:])
    for argv, a, b in zip(sequence, shared, fresh):
        assert a == b, argv


def test_cached_t_columns_write_what_fresh_ones_write(tmp_path, capsys):
    # both worked configs live on [0, 1], so the exp solve reuses the sigmoid column of its grid
    sequence = [
        ["solve", "--config", SIGMOID, "--grid", "65"],
        ["solve", "--config", SIGMOID, "--grid", "1025"],
        ["solve", "--config", SIGMOID, "--grid", "2049"],
        ["solve", "--config", EXP, "--grid", "2049"],
        ["solve", "--config", SIGMOID, "--grid", "2049"],
    ]
    grid._csv_format.cache_clear()
    cached = [_run_and_collect(argv, tmp_path / f"cached{k}", capsys) for k, argv in enumerate(sequence)]
    assert grid._csv_format.cache_info().misses == 3  # a work count: one formatted column per grid
    fresh = []
    for k, argv in enumerate(sequence):
        grid._csv_format.cache_clear()
        fresh.append(_run_and_collect(argv, tmp_path / f"fresh{k}", capsys))
    assert all(any(name.startswith("solution_") for name in files) for _, _, files in cached)
    for argv, a, b in zip(sequence, cached, fresh):
        assert a == b, argv


def test_worked_solutions_format_without_the_per_value_fallback(tmp_path, monkeypatch):
    # a work count: every u and t of both worked configs' n = 2049 solutions goes through
    # the array formatter, none through the per-value "%.17g"
    taken = []
    monkeypatch.setattr(grid, "_g17_one", lambda v: taken.append(v) or b"%.17g" % v)
    grid._csv_format.cache_clear()
    for k, config in enumerate((SIGMOID, EXP)):
        out = tmp_path / f"out{k}"
        assert main(["solve", "--config", config, "--grid", "2049", "--out", str(out), "--no-timing"]) == 0
        assert len(list(out.glob("solution_*.csv"))) >= 2
    assert taken == []


@pytest.mark.parametrize(
    "argv, blocked",
    [
        (["solve", "--config", SIGMOID, "--grid", "65"], "report.json"),
        (["solve", "--config", SIGMOID, "--grid", "65"], "solution_1.csv"),
        (["certify", "--config", SIGMOID], "report.json"),
        (["sweep", "--config", SIGMOID, "--axis", "beta:0.1:0.9:3"], "sweep.csv"),
    ],
)
def test_a_failed_write_leaves_no_file_of_the_run(argv, blocked, tmp_path, capsys):
    # a directory where one output should go: exit 2 naming it, and only that directory remains
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write output {out / blocked}" in err and "Traceback" not in err, err
    assert [path.name for path in out.iterdir()] == [blocked]
    assert not any((out / blocked).iterdir())


def test_solve_times_the_csv_write(tmp_path):
    assert main(["solve", "--config", SIGMOID, "--grid", "65", "--out", str(tmp_path / "t")]) == 0
    timing = read_report(tmp_path / "t")["timing"]
    assert sorted(timing) == ["certify", "constants", "load_config", "solve", "validate", "write_solutions"]
    assert timing["write_solutions"] > 0 and timing["load_config"] > 0
    assert main(["solve", "--config", SIGMOID, "--grid", "65", "--out", str(tmp_path / "n"), "--no-timing"]) == 0
    assert "timing" not in read_report(tmp_path / "n")


def test_a_run_from_a_document_bounds_the_f_check_box_once(tmp_path, monkeypatch):
    # a work count: the construction check's range of f on [0, T] x [0, 2c] is the H1 check's too,
    # while a Problem built in Python has none, and validate_hypotheses bounds that box itself
    box, calls = (0.0, 1.0, 0.0, 248.0), []
    bound = RationalSigmoid.range

    def counted(self, t_lo, t_hi, u_lo, u_hi):
        calls.append(isinstance(u_hi, float) and (t_lo, t_hi, u_lo, u_hi) == box)
        return bound(self, t_lo, t_hi, u_lo, u_hi)

    monkeypatch.setattr(RationalSigmoid, "range", counted)
    assert main(["certify", "--config", SIGMOID, "--out", str(tmp_path), "--no-timing"]) == 0
    assert calls.count(True) == 1
    assert validate_hypotheses(make_sigmoid_problem(), u_max=248.0).h1_ok
    assert calls.count(True) == 2
