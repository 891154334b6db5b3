import functools
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from scipy.integrate import IntegrationWarning

import epochfpa
from epochfpa.cli import main
from epochfpa.distributions import QuadratureWarning
from epochfpa.suites import run_suite


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


# a fresh interpreter, as this test module imports scipy itself; besides the
# CLI on a uniform and a finite prior, it integrates sqrt over [0, 1], singular
# at 0, and replays the policy-replay roster, whose lookahead replays reach
# that integral through a one-buyer good set
_SCIPY_FREE_SCRIPT = """
import math, sys
from epochfpa.agents import default_expert_family
from epochfpa.cli import main
from epochfpa.distributions import (
    InverseCdf, Uniform, myerson_revenue, myerson_win_prob, tail_quantile, upper_tail_mean,
    win_quantile,
)
from epochfpa.harness import RunConfig, estimate_policy_regret
from epochfpa.mechanism import MechanismParams

config, out, dist = sys.argv[1:]
assert main(['simulate', '--config', config, '--out', out]) == 0
assert main(['inspect', '--dist', dist, '--m', '2', '--n', '2']) == 0
assert upper_tail_mean(InverseCdf(math.sqrt), 1) == 0.6666666666666669
for scalar in (tail_quantile, upper_tail_mean, myerson_win_prob, win_quantile, myerson_revenue):
    scalar(Uniform(0, 1), 25)
sqrt = InverseCdf(lambda p: p**0.5, label='sqrt')
params = MechanismParams(n=4, horizon=1000, epsilon=0.3, delta=0.3, rho=0.3 * 0.7**4 / 12)
roster = [{'kind': 'exp3'}, {'kind': 'lookahead'}, {'kind': 'myopic'},
          {'kind': 'myopic', 'good_mode': 'zero'}]
replay = RunConfig(params=params, distribution=sqrt, agents=roster, seed=5)
for buyer in (0, 1):
    estimate_policy_regret(replay, buyer, default_expert_family(sqrt))
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""


def test_no_prior_ever_loads_scipy(tmp_path, config_file):
    src = str(Path(epochfpa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    finite = '{"kind":"finite","support":[[1.0,0.5],[2.0,0.5]]}'
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_SCRIPT, str(config_file), str(tmp_path / "out"), finite],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.splitlines()[-1] == "[]"


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
    # the summary is pinned byte for byte: its fields, their order and the float text
    summary = (out / "summary_rep000.json").read_bytes()
    assert json.loads(summary)["rounds"] == 700
    assert hashlib.sha256(summary).hexdigest() == (
        "66c2e127c5bf8574f5968924d221fa234044c1d3f620d4af2faa2a38f6fe9a8b"
    )


def test_simulate_holds_one_trajectory_at_a_time(tmp_path, config_file, monkeypatch):
    from epochfpa import harness

    alive = []  # a weak reference to every trajectory run so far
    run_simulation = harness.run_simulation

    def tracked(*args, **kwargs):
        assert [ref for ref in alive if ref() is not None] == []
        traj = run_simulation(*args, **kwargs)
        alive.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(harness, "run_simulation", tracked)
    assert main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "out")]) == 0
    assert len(alive) == 2


def test_simulate_seed_override_changes_output(tmp_path, config_file):
    out_a, out_b, out_c = (tmp_path / x for x in ("a", "b", "c"))
    main(["simulate", "--config", str(config_file), "--out", str(out_a)])
    main(["simulate", "--config", str(config_file), "--out", str(out_b)])
    main(["simulate", "--config", str(config_file), "--out", str(out_c), "--seed", "77"])
    rep0 = "trajectory_rep000.ndjson"
    assert (out_a / rep0).read_bytes() == (out_b / rep0).read_bytes()
    assert (out_a / rep0).read_bytes() != (out_c / rep0).read_bytes()


@pytest.mark.parametrize("seed", [2**64, -1])
def test_simulate_seed_outside_the_stream_range_exits_two(tmp_path, config_file, capsys, seed):
    # from --seed, which replaces the checked seed of the file, and from the file
    (tmp_path / "bad").mkdir()
    in_file = one_buyer_config(tmp_path / "bad", seed=seed)
    for path, option in ((config_file, ["--seed", str(seed)]), (in_file, [])):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)] + option) == 2
        assert f"seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("seed", [2**64, -1])
def test_verify_seed_outside_the_stream_range_exits_two_before_the_suite_runs(
    monkeypatch, capsys, seed
):
    from epochfpa import suites

    real, calls = suites.SUITES["lemma-b1"], []

    @functools.wraps(real)  # keeps the signature the option check reads
    def recording(**overrides):
        calls.append(overrides)
        return real(**overrides)

    monkeypatch.setitem(suites.SUITES, "lemma-b1", recording)
    assert main(["verify", "--suite", "lemma-b1", "--seed", str(seed)]) == 2
    assert f"seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert calls == []


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
        report.check("always fails", 0.0, 1.0)
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


def test_verify_passes_the_seed_to_the_suite(monkeypatch, capsys):
    from epochfpa import suites

    real, seeds = suites.SUITES["lemma-b1"], []

    @functools.wraps(real)  # keeps the signature the option check reads
    def recording(**overrides):
        seeds.append(overrides.get("seed"))
        return real(**overrides)

    monkeypatch.setitem(suites.SUITES, "lemma-b1", recording)
    assert main(["verify", "--suite", "lemma-b1", "--seed", "7"]) == 0
    assert seeds == [7]
    assert "=== suite lemma-b1: PASS ===" in capsys.readouterr().out


def test_run_suite_refuses_an_unknown_name():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suite("nope")


def test_config_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"params": {"n": 2}}')
    assert main(["bounds", "--config", str(bad)]) == 2
    assert main(["inspect", "--dist", '{"kind":"nope"}', "--m", "1", "--n", "1"]) == 2
    capsys.readouterr()
    # inspect computes every scalar before it prints its first line
    uniform = '{"kind":"uniform","lo":0,"hi":1}'
    for m, n, message in (
        ("0", "1", "buyer count must be an integer of at least 1, got 0"),
        ("1", "-1", "buyer count must be an integer of at least 0, got -1"),
    ):
        assert main(["inspect", "--dist", uniform, "--m", m, "--n", n]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err


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


@pytest.mark.parametrize(
    "key, value",
    [("epsilon", "x"), ("delta", None), ("rho", [0.006])],
    ids=["string-epsilon", "null-delta", "list-rho"],
)
def test_non_number_mechanism_rates_exit_two(tmp_path, capsys, key, value):
    path = one_buyer_config(tmp_path, **{key: value})
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be a number, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out_dir", [5, ["out"]], ids=["int", "list"])
def test_non_string_out_dir_exits_two(tmp_path, monkeypatch, capsys, out_dir):
    monkeypatch.chdir(tmp_path)
    path = one_buyer_config(tmp_path, out_dir=out_dir)
    assert main(["simulate", "--config", str(path)]) == 2
    assert f"out_dir must be a string, got {out_dir!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_simulate_without_an_output_directory_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = one_buyer_config(tmp_path)
    assert main(["simulate", "--config", str(path)]) == 2
    assert "no output directory: pass --out or set out_dir" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


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


@pytest.mark.parametrize(
    "dist, message",
    [
        ('{"kind":"finite"}', "finite distribution needs a 'support' field"),
        ('{"kind":"finite","support":5}', "finite support must be [value, probability] pairs"),
        ('{"kind":"uniform","lo":0}', "uniform distribution needs a 'hi' field"),
        ('{"kind":"uniform","lo":null,"hi":1}', "uniform bound lo must be a number"),
        ('{"kind":"uniform","lo":"0","hi":1}', "uniform bound lo must be a number, got '0'"),
        ('{"kind":"uniform","lo":0,"hi":true}', "uniform bound hi must be a number, got True"),
        ('{"kind":"finite","support":[[true,1.0]]}', "support values must be a number, got True"),
        ('{"kind":"finite","support":[[1.0,"1"]]}', "probabilities must be a number, got '1'"),
    ],
    ids=[
        "finite-no-support", "finite-support-not-pairs", "uniform-no-hi", "uniform-null-lo",
        "uniform-string-lo", "uniform-bool-hi", "finite-bool-value", "finite-string-probability",
    ],
)
def test_malformed_distribution_exits_two(capsys, dist, message):
    assert main(["inspect", "--dist", dist, "--m", "1", "--n", "1"]) == 2
    assert message in capsys.readouterr().err


def test_uniform_infinite_bound_exits_two(capsys, recwarn):
    dist = '{"kind":"uniform","lo":0,"hi":Infinity}'
    assert main(["inspect", "--dist", dist, "--m", "2", "--n", "2"]) == 2
    assert "uniform bound hi must be finite" in capsys.readouterr().err
    assert not [
        w for w in recwarn
        if issubclass(w.category, (RuntimeWarning, IntegrationWarning, QuadratureWarning))
    ]



@pytest.mark.parametrize(
    "agent, message",
    [
        ("myopic", "roster entry 0 must be an object"),
        ({"kind": "lookahead", "k": "deep"}, "lookahead depth k must be an integer"),
        ({"kind": "lookahead", "k": True}, "lookahead depth k must be an integer"),
        ({"kind": "etc", "explore_len": 0.5}, "explore_len must be an integer"),
        ({"kind": "etc", "explore_len": 0}, "explore_len must be an integer"),
        ({"id": False, "kind": "myopic"}, "roster entry 0 id must be an integer, got False"),
        ({"id": 0.0, "kind": "myopic"}, "roster entry 0 id must be an integer, got 0.0"),
        ({"id": "0", "kind": "myopic"}, "roster entry 0 id must be an integer, got '0'"),
        ({"kind": "exp3", "levels": "6"}, "levels must be an integer of at least 0, got '6'"),
        ({"kind": "exp3", "levels": 1.5}, "levels must be an integer of at least 0, got 1.5"),
        ({"kind": "exp3", "levels": True}, "levels must be an integer of at least 0, got True"),
        ({"kind": "exp3", "levels": -3}, "levels must be an integer of at least 0, got -3"),
        ({"kind": "etc", "levels": "6"}, "levels must be an integer of at least 0, got '6'"),
        ({"kind": "exp3", "gamma": "0.5"}, "gamma must lie in (0, 1], got '0.5'"),
        ({"kind": ["exp3"]}, "agent kind must be a string, got ['exp3']"),
        ({"kind": {"a": 1}}, "agent kind must be a string, got {'a': 1}"),
        ({"kind": "exp3", "family": "abc"}, "family must be an ExpertFamily, got 'abc'"),
        ({"kind": "etc", "family": 3}, "family must be an ExpertFamily, got 3"),
    ],
    ids=[
        "not-an-object", "string-k", "bool-k", "fractional-explore-len", "zero-explore-len",
        "bool-id", "float-id", "string-id", "string-levels", "fractional-levels", "bool-levels",
        "negative-levels", "string-etc-levels", "string-gamma", "list-kind", "object-kind",
        "string-family", "int-family",
    ],
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
            upper_bound=1.0, slack=0.1,
        )
        report.checks.append(harness.Check("revenue >= lower bound - slack - 3se", 0.0, 0.4))
        return report

    monkeypatch.setattr(cli, "bound_report", failing)
    assert main(["bounds", "--config", str(config_file), "--measure"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_bounds_measure_at_zero_horizon_exits_two(tmp_path, config_file, capsys):
    doc = json.loads(config_file.read_text())
    doc["params"]["T"] = 0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert main(["bounds", "--config", str(path), "--measure"]) == 2
    captured = capsys.readouterr()
    assert "T=0" in captured.err and "[FAIL]" not in captured.out
    # without --measure nothing is run, and the report prints as before
    assert main(["bounds", "--config", str(path)]) == 0
    assert "slack=0.000000" in capsys.readouterr().out


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
