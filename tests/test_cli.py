import json
from pathlib import Path


from tribvp.cli import main
from tribvp.config import parse_run_config
from tribvp.runner import run

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


def test_config_errors_exit_code(tmp_path):
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

    # integer options must be ints >= 1, not floats, zero or truncated halves
    for mode, solver in (
        ("solve", {"picard_max_iter": 500.0}),
        ("certify", {"search_per_axis": 13.0}),
        ("certify", {"search_per_axis": 0}),
        ("solve", {"grid_n": 2049.5}),
    ):
        bad = tmp_path / "bad_int.json"
        bad.write_text(json.dumps({**json.loads(Path(SIGMOID).read_text()), "solver": solver}))
        assert main([mode, "--config", str(bad), "--out", str(tmp_path)]) == 2, solver

    # f is -1 at u = 0.115, between the points any coarse sample would take
    dip = tmp_path / "dip.json"
    doc = json.loads(Path(SIGMOID).read_text())
    doc["problem"]["f"] = {"kind": "piecewise-linear-table", "params": [0, 1, "1/10", 1, "23/200", -1, "13/100", 1, 10, 1]}
    dip.write_text(json.dumps(doc))
    assert main(["constants", "--config", str(dip), "--out", str(tmp_path)]) == 2


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
