"""The one rate verdict of the suite runner: `SuiteRunner.rate_outcome`."""

import math

import numpy as np

from heisgeom.manifests import load_manifest
from heisgeom.suites import SuiteRunner

from conftest import TS

RUNNER = SuiteRunner(load_manifest("heisenberg3"))
INPUTS = {"check": "unit"}


def outcome(traces, **kw):
    assert np.array_equal(RUNNER.t_grid, TS)
    return RUNNER.rate_outcome(INPUTS, [np.asarray(r, dtype=float) for r in traces], **kw)


def test_rate_outcome_shows_the_least_slope():
    out = outcome([0.3 * TS**2, 0.3 * TS, 0.3 * TS**1.5])
    assert out.verdict == "pass"
    assert abs(out.slope - 1.0) < 1e-9
    assert out.residuals == tuple((0.3 * TS).tolist())
    assert out.inputs == INPUTS


def test_rate_outcome_takes_the_first_of_equal_slopes():
    out = outcome([0.3 * TS, 0.5 * TS])
    assert out.residuals == tuple((0.3 * TS).tolist())


def test_rate_outcome_prefers_an_inexact_trace():
    out = outcome([np.zeros(len(TS)), 0.2 * TS**3])
    assert abs(out.slope - 3.0) < 1e-9
    assert out.residuals == tuple((0.2 * TS**3).tolist())


def test_rate_outcome_all_exact_shows_the_first_trace():
    first = np.full(len(TS), 1e-12)
    out = outcome([first, np.zeros(len(TS))])
    assert math.isinf(out.slope)
    assert out.verdict == "pass"
    assert out.residuals == tuple(first.tolist())


def test_rate_outcome_fails_below_slope_min():
    out = outcome([0.3 * TS, 0.3 * TS**0.5])
    assert out.verdict == "fail"
    assert abs(out.slope - 0.5) < 1e-9


def test_rate_outcome_ok_false_fails_a_passing_slope():
    assert outcome([0.3 * TS], ok=False).verdict == "fail"


def test_rate_outcome_flagged():
    assert outcome([0.3 * TS], flagged=True).verdict == "flagged"
    # a failing slope is a fail, flagged or not
    assert outcome([0.3 * TS**0.5], flagged=True).verdict == "fail"


def test_rate_outcome_on_a_nan_trace_is_an_error_record():
    rec = RUNNER.record("unit/nan", "groupoid.privileged-composition-claim", lambda: outcome([0.3 * TS, np.full(len(TS), np.nan)]))
    assert rec.verdict == "error"
    assert rec.value["error"] == "RateError"
    assert "not finite" in rec.value["message"]
