"""The per-test wall-time budget enforced from ``tests/conftest.py``."""

from types import SimpleNamespace

import pytest

from tests import conftest


def _report(outcome="passed"):
    return SimpleNamespace(
        outcome=outcome, passed=outcome == "passed", longrepr=None
    )


def _run_hook(report, duration, when="call"):
    hook = conftest.pytest_runtest_makereport(
        None, SimpleNamespace(duration=duration, when=when)
    )
    next(hook)
    with pytest.raises(StopIteration):
        hook.send(SimpleNamespace(get_result=lambda: report))
    return report


class TestOverBudget:
    def test_within_budget_passes(self):
        assert conftest.over_budget(0.0, "call") is None
        assert conftest.over_budget(conftest.WALL_TIME_BUDGET_S, "call") is None

    def test_over_budget_names_phase_and_budget(self):
        message = conftest.over_budget(
            conftest.WALL_TIME_BUDGET_S + 1.5, "teardown"
        )
        assert message.startswith("teardown took 61.5 s")
        assert "60 s per-test wall-time budget" in message


class TestHook:
    @pytest.mark.parametrize("when", ["setup", "call", "teardown"])
    def test_slow_passing_phase_fails(self, when):
        report = _run_hook(_report(), conftest.WALL_TIME_BUDGET_S + 1, when)
        assert report.outcome == "failed"
        assert "wall-time budget" in report.longrepr

    def test_fast_phase_untouched(self):
        report = _run_hook(_report(), 0.5)
        assert report.outcome == "passed" and report.longrepr is None

    def test_existing_failure_keeps_its_own_report(self):
        report = _run_hook(_report("failed"), conftest.WALL_TIME_BUDGET_S + 1)
        assert report.outcome == "failed" and report.longrepr is None
