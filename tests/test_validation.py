"""How the validation suite schedules its criteria (stub checks, no physics)."""

import itertools

import pytest

from mrtkit import validation


@pytest.fixture
def stub_checks(monkeypatch):
    """Replace criteria 1-9 by stubs that log each call; `drift` makes them vary."""
    calls = []
    counter = itertools.count()
    state = {"drift": False}

    def stub(cid):
        def check(seed):
            calls.append(cid)
            value = float(next(counter)) if state["drift"] else 0.0
            return [validation._le(cid, "stub", "value", value, 1e9)]

        return check

    checks = dict(validation._CHECKS)
    checks.update({cid: stub(cid) for cid in range(1, 10)})
    monkeypatch.setattr(validation, "_CHECKS", checks)
    return calls, state


def test_run_all_runs_criteria_1_to_9_twice(stub_checks):
    calls, _ = stub_checks
    records = validation.run_all(7)
    assert calls == list(range(1, 10)) * 2
    assert [r.criterion for r in records] == list(range(1, 11))
    assert records[-1].passed


def test_run_all_compares_its_own_run(stub_checks):
    # a run that differs from the suite's own first run must turn criterion 10 red
    _, state = stub_checks
    state["drift"] = True
    records = validation.run_all(7)
    assert not records[-1].passed


def test_criterion_10_alone_makes_two_runs(stub_checks):
    calls, _ = stub_checks
    records = validation.run_criterion(10, seed=7)
    assert calls == list(range(1, 10)) * 2
    assert [r.passed for r in records] == [True]
