import json

import pytest
from scipy.integrate import IntegrationWarning

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


@pytest.mark.parametrize(
    "suite, value", [("lemma-b1", "7"), ("regret", "0")], ids=["lemma-b1", "regret"]
)
def test_verify_option_the_suite_does_not_take_exits_two(suite, value, capsys):
    assert main(["verify", "--suite", suite, "--replications", value]) == 2
    err = capsys.readouterr().err
    assert suite in err and "--replications" in err


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
    assert main(["bounds", "--config", str(path)]) == 2
    assert "grid step must be a positive finite number" in capsys.readouterr().err
    # the roster is built before the output directory is made
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "grid step must be a positive finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_finite_support_non_finite_value_exits_two(capsys, value):
    dist = f'{{"kind":"finite","support":[[{value},0.5],[1.0,0.5]]}}'
    assert main(["inspect", "--dist", dist, "--m", "1", "--n", "1"]) == 2
    assert "support values must be finite" in capsys.readouterr().err


def test_uniform_infinite_bound_exits_two(capsys, recwarn):
    dist = '{"kind":"uniform","lo":0,"hi":Infinity}'
    assert main(["inspect", "--dist", dist, "--m", "2", "--n", "2"]) == 2
    assert "uniform bound hi must be finite" in capsys.readouterr().err
    assert not [
        w for w in recwarn if issubclass(w.category, (RuntimeWarning, IntegrationWarning))
    ]



@pytest.mark.parametrize(
    "agent, message",
    [
        ("myopic", "roster entry 0 must be an object"),
        ({"kind": "lookahead", "k": "deep"}, "lookahead depth k must be an integer"),
        ({"kind": "lookahead", "k": True}, "lookahead depth k must be an integer"),
        ({"kind": "etc", "explore_len": 0.5}, "explore_len must be an integer"),
        ({"kind": "etc", "explore_len": 0}, "explore_len must be an integer"),
    ],
    ids=["not-an-object", "string-k", "bool-k", "fractional-explore-len", "zero-explore-len"],
)
def test_malformed_roster_entry_exits_two(tmp_path, capsys, agent, message):
    path = one_buyer_config(tmp_path, agents=[agent])
    assert main(["bounds", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bounds_measure_failed_check_exits_one(monkeypatch, config_file, capsys):
    from epochfpa import cli, harness

    def failing(config, measure=True):
        report = harness.BoundReport(
            n_soph=1, n_naive=1, lower_bound=0.5, lower_bound_conservative=0.4,
            upper_bound=1.0, slack=0.1, measured_mean=0.0, measured_se=0.0,
        )
        report.checks.append(("revenue >= lower bound - slack - 3se", False, -0.4))
        return report

    monkeypatch.setattr(cli, "bound_report", failing)
    assert main(["bounds", "--config", str(config_file), "--measure"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def six_etc_config(tmp_path, reset_round):
    """Six etc buyers at the theorem-1 horizon; 15 experts explore 88 rounds each."""
    doc = {
        "params": {
            "n": 6, "T": 47_532, "epsilon": 0.3, "delta": 0.3,
            "rho": 0.3 * 0.7**4 / 12, "reset_round": reset_round,
        },
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "agents": [{"kind": "etc"}] * 6,
        "seed": 606,
        "replications": 4,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_bounds_measure_counts_etc_without_reset_as_naive(tmp_path, capsys):
    path = six_etc_config(tmp_path, reset_round=None)
    with pytest.warns(UserWarning, match="no mechanism reset"):
        assert main(["bounds", "--config", str(path), "--measure"]) == 0
    out = capsys.readouterr().out
    assert "0 sophisticated, 6 naive" in out
    assert "[FAIL]" not in out


def test_bounds_measure_counts_etc_with_reset_as_sophisticated(tmp_path, capsys):
    path = six_etc_config(tmp_path, reset_round=1320)
    assert main(["bounds", "--config", str(path), "--measure"]) == 0
    out = capsys.readouterr().out
    assert "6 sophisticated, 0 naive" in out
    assert "[FAIL]" not in out
