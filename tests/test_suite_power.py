"""Each lemma suite fails, in the check that names its quantity, when the
mechanism derives its epoch configs with a planted fault.

The faults were fixed before the suites first ran under them:
- lemma-b1: the good reserve times 0.5;
- lemma-b2: a bad reserve of 0;
- lemma-b3: the uncleared threshold times 3.

Each suite runs at a reduced size, which it passes without the fault.
"""

import dataclasses

import pytest

from epochfpa import mechanism
from epochfpa.suites import suite_lemma_b1, suite_lemma_b2, suite_lemma_b3

CONFIGS = "completed epochs whose recorded config differs from derive_epoch_config"

FAULTS = {
    "good reserve x 0.5": lambda c: dataclasses.replace(c, good_reserve=0.5 * c.good_reserve),
    "bad reserve = 0": lambda c: dataclasses.replace(c, bad_reserve=0.0),
    "uncleared threshold x 3": lambda c: dataclasses.replace(
        c, uncleared_threshold=3 * c.uncleared_threshold
    ),
}

CASES = [
    (
        suite_lemma_b1,
        {"runs": 3},
        "good reserve x 0.5",
        {"epochs with good-phase revenue < |G_end|*H*(1-eps)*upper_tail_mean(|G_start|)", CONFIGS},
    ),
    (
        suite_lemma_b2,
        {"epochs": 20},
        "bad reserve = 0",
        {"mean bad-phase revenue per round", CONFIGS},
    ),
    (
        suite_lemma_b3,
        {"epochs": 20},
        "uncleared threshold x 3",
        {"completed epochs without an uncleared threshold"},
    ),
]


def failed_checks(report) -> set[str]:
    return {check.name for check in report.checks if not check.passed}


@pytest.mark.parametrize(
    "suite, size, fault, failed", CASES, ids=[f"{s.__name__}: {f}" for s, _, f, _ in CASES]
)
def test_suite_fails_in_its_own_quantity_under_its_fault(monkeypatch, suite, size, fault, failed):
    assert failed_checks(suite(**size)) == set()
    derive = mechanism.derive_epoch_config
    monkeypatch.setattr(
        mechanism, "derive_epoch_config", lambda *a, **k: FAULTS[fault](derive(*a, **k))
    )
    assert failed_checks(suite(**size)) == failed
