import json

import pytest

from epochfpa.cli import main


@pytest.fixture
def config_file(tmp_path):
    doc = {
        "params": {"n": 2, "T": 700, "epsilon": 0.3, "delta": 0.3, "rho": 0.006},
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "agents": [{"id": 0, "kind": "lookahead"}, {"id": 1, "kind": "myopic"}],
        "seed": 9,
        "replications": 2,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_inspect_prints_scalars(capsys):
    code = main(
        ["inspect", "--dist", '{"kind":"uniform","lo":0,"hi":1}', "--m", "2", "--n", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(values["tail_quantile"]) == pytest.approx(0.5)
    assert float(values["upper_tail_mean"]) == pytest.approx(0.75)
    assert float(values["win_prob"]) == pytest.approx(0.375, abs=1e-6)
    assert float(values["win_quantile"]) == pytest.approx(0.625, abs=1e-6)
    assert float(values["myerson_revenue"]) == pytest.approx(5 / 12, abs=1e-6)


def test_inspect_reads_dist_from_file(tmp_path, capsys):
    path = tmp_path / "dist.json"
    path.write_text('{"kind":"finite","support":[[1.0,0.5],[2.0,0.5]]}')
    assert main(["inspect", "--dist", str(path), "--m", "2", "--n", "2"]) == 0
    values = dict(
        line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert float(values["myerson_revenue"]) == pytest.approx(1.5)


def test_simulate_writes_outputs(tmp_path, config_file, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 0
    assert (out / "trajectory_rep000.ndjson").exists()
    assert (out / "trajectory_rep001.ndjson").exists()
    assert (out / "epochs_rep000.csv").exists()
    runs = (out / "runs.csv").read_text().strip().splitlines()
    assert len(runs) == 1 + 2 + 1  # header, two replications, aggregate row
    assert runs[-1].startswith("aggregate")
    assert "ci95" in runs[-1]


def test_simulate_seed_override_changes_output(tmp_path, config_file):
    out_a, out_b, out_c = (tmp_path / x for x in ("a", "b", "c"))
    main(["simulate", "--config", str(config_file), "--out", str(out_a)])
    main(["simulate", "--config", str(config_file), "--out", str(out_b)])
    main(["simulate", "--config", str(config_file), "--out", str(out_c), "--seed", "77"])
    rep0 = "trajectory_rep000.ndjson"
    assert (out_a / rep0).read_bytes() == (out_b / rep0).read_bytes()
    assert (out_a / rep0).read_bytes() != (out_c / rep0).read_bytes()


def test_bounds_prints_report(config_file, capsys):
    assert main(["bounds", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "lower_bound_per_round=" in out
    assert "upper_bound_per_round=" in out
    assert "1 sophisticated, 1 naive" in out


def test_verify_suite_pass_exit_zero(capsys):
    assert main(["verify", "--suite", "policy-regret"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_suite_fail_exit_one(monkeypatch, capsys):
    from epochfpa import suites

    def failing():
        report = suites.SuiteReport("doomed")
        report.check(False, "always fails")
        return report

    monkeypatch.setitem(suites.SUITES, "policy-regret", failing)
    assert main(["verify", "--suite", "policy-regret"]) == 1


def test_config_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"params": {"n": 2}}')
    assert main(["bounds", "--config", str(bad)]) == 2
    assert main(["inspect", "--dist", '{"kind":"nope"}', "--m", "1", "--n", "1"]) == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def one_buyer_config(tmp_path, **changes):
    """A one-buyer config file, with ``changes`` applied to params or the top level."""
    doc = {
        "params": {"n": 1, "T": 50, "epsilon": 0.3, "delta": 0.3, "rho": 0.006},
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "agents": [{"kind": "myopic"}],
        "seed": 3,
        "replications": 1,
    }
    for key, value in changes.items():
        (doc["params"] if key in doc["params"] else doc)[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "key, value",
    [("T", 50.0), ("seed", 1.7), ("n", True), ("T", True), ("seed", True), ("replications", True)],
    ids=["float-T", "float-seed", "bool-n", "bool-T", "bool-seed", "bool-replications"],
)
def test_non_integer_run_config_fields_exit_two(tmp_path, capsys, key, value):
    path = one_buyer_config(tmp_path, **{key: value})
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("step", [0, -0.25, float("nan")], ids=["zero", "negative", "nan"])
def test_exp3_bad_grid_step_exits_two(tmp_path, capsys, step):
    path = one_buyer_config(tmp_path, agents=[{"kind": "exp3", "grid_step": step}])
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "grid step must be a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_finite_support_non_finite_value_exits_two(capsys, value):
    dist = f'{{"kind":"finite","support":[[{value},0.5],[1.0,0.5]]}}'
    assert main(["inspect", "--dist", dist, "--m", "1", "--n", "1"]) == 2
    assert "support values must be finite" in capsys.readouterr().err
