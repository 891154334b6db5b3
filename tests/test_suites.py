"""Named suites fail, rather than crash or pass, when their regime is wrong."""

import dataclasses
import math
import warnings

import pytest

from epochfpa import mechanism
from epochfpa.suites import suite_lemma_b1, suite_lemma_b2, suite_lemma_b3, suite_lemma_b4


def test_lemma_b4_without_a_qualifying_epoch_fails():
    report = suite_lemma_b4(epochs=0)
    assert not report.passed
    assert report.lines and not any("None" in line for line in report.lines)


@pytest.mark.parametrize("suite", [suite_lemma_b2, suite_lemma_b3])
def test_a_suite_without_samples_fails_on_nan_and_warns_nothing(suite):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = suite(epochs=0)
    failed = [check for check in report.checks if not check.passed]
    assert failed and all(math.isnan(check.observed) for check in failed)


def test_lemma_b1_fails_when_the_mechanism_halves_the_good_reserve(monkeypatch):
    derive = mechanism.derive_epoch_config

    def halved(*args, **kwargs):
        config = derive(*args, **kwargs)
        return dataclasses.replace(config, good_reserve=0.5 * config.good_reserve)

    assert suite_lemma_b1(runs=3).passed
    monkeypatch.setattr(mechanism, "derive_epoch_config", halved)
    report = suite_lemma_b1(runs=3)
    assert not report.passed
    assert sum(line.startswith("[FAIL]") for line in report.lines) == 2
