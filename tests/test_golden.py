"""Byte-level regression pins for a fixed seed and a mixed roster.

The constants below were recorded before the round loop was optimised.  Any
change to the simulation that moves a single output byte fails here: the
ndjson and epoch-CSV hashes pin the full-mode exports, and the light-mode
accounting arrays are pinned value by value.
"""

import hashlib
import warnings

import numpy as np
import pytest

from epochfpa.distributions import Uniform
from epochfpa.harness import RunConfig, run_simulation, trajectory_ndjson, write_epoch_csv
from epochfpa.mechanism import BuyerState, MechanismParams

EPS = 0.3
RHO = EPS * (1 - EPS) ** 4 / 12

NDJSON_SHA256 = "fb97b3cd5c27b597377113841701958d51180f360b7b730365fb4ec662a6bf6d"
EPOCH_CSV_SHA256 = "731b372dc1f8ea16b70b6b887a804fa48682ebb5304224ab80b4d647f85471a2"
AGENT_UTILITIES = [
    81.39614433581968,
    77.8413128518119,
    4.633167046432385,
    69.4528862516136,
    0.5757514341396137,
]
AGENT_WINS = [321, 304, 30, 373, 3]
STATE_ROUNDS = [
    [1749, 0, 1251],
    [1690, 0, 1310],
    [786, 2214, 0],
    [994, 0, 2006],
    [786, 2214, 0],
]
EPOCH_AGENT_UTILITIES = [
    [8.723361592726063, 1.0605978024087526, 0.8151384147544614, 9.123455953170437, 0.0],
    [15.129748584339586, 14.494377695987943, 3.744089403271382, 9.49090359920421, 0.0],
    [13.127891620621897, 13.571211415665179, 0.0, 10.206766859790775, 0.28370306333218653],
    [12.533668570644808, 14.746161906784716, 0.0, 10.363788986627535, 0.0],
    [12.544962130335414, 12.986376970371435, 0.0, 10.444808963569756, 0.028595555323045363],
    [14.17571709812326, 13.979253820519464, 0.0, 10.207995825374038, 0.2634528154843818],
    [5.160794739028636, 7.0033332400744515, 0.07393922840654221, 9.615166063876808, 0.0],
]
GOOD_ROUNDS = 2975
UNCLEARED_GOOD_ROUNDS = 1948
G, B = BuyerState.GOOD, BuyerState.BAD
FINAL_STATES = (G, G, B, G, B)


@pytest.fixture(scope="module")
def runs():
    # ETC explores 15 experts for 14 rounds each; the reset forgives round 210
    params = MechanismParams(
        n=5, horizon=3000, epsilon=EPS, delta=EPS, rho=RHO, reset_round=210
    )
    cfg = RunConfig(
        params=params,
        distribution=Uniform(0.0, 1.0),
        agents=[
            {"kind": "lookahead"},
            {"kind": "etc"},
            {"kind": "exp3"},
            {"kind": "myopic", "good_mode": "empirical"},
            {"kind": "myopic", "good_mode": "zero"},
        ],
        seed=2024,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_simulation(cfg, record="full"), run_simulation(cfg, record="light")


def test_full_run_exports_match_recorded_hashes(runs, tmp_path):
    full, _ = runs
    ndjson = trajectory_ndjson(full).encode()
    assert hashlib.sha256(ndjson).hexdigest() == NDJSON_SHA256
    path = tmp_path / "epochs.csv"
    write_epoch_csv(full, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EPOCH_CSV_SHA256


def test_light_run_accounting_matches_recorded_values(runs):
    _, light = runs
    assert light.agent_utilities.dtype == np.float64
    assert light.agent_utilities.tolist() == AGENT_UTILITIES
    assert light.agent_wins.dtype == np.int64
    assert light.agent_wins.tolist() == AGENT_WINS
    assert light.state_rounds.dtype == np.int64
    assert light.state_rounds.tolist() == STATE_ROUNDS
    assert [u.dtype for u in light.epoch_agent_utilities] == [np.float64] * 7
    assert [u.tolist() for u in light.epoch_agent_utilities] == EPOCH_AGENT_UTILITIES
    assert light.good_rounds == GOOD_ROUNDS
    assert light.uncleared_good_rounds == UNCLEARED_GOOD_ROUNDS
    assert light.final_states == FINAL_STATES
    assert light.rounds is None


def test_full_and_light_runs_agree_exactly(runs):
    full, light = runs
    for name in ("agent_utilities", "agent_wins", "state_rounds", "values"):
        a, b = getattr(full, name), getattr(light, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert len(full.epoch_agent_utilities) == len(light.epoch_agent_utilities)
    for a, b in zip(full.epoch_agent_utilities, light.epoch_agent_utilities):
        assert np.array_equal(a, b)
    assert full.good_rounds == light.good_rounds
    assert full.uncleared_good_rounds == light.uncleared_good_rounds
    assert full.final_states == light.final_states
    assert full.epochs == light.epochs
    assert len(full.rounds) == full.rounds_executed == 3000
