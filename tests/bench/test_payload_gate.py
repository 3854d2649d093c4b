"""The payload failure gate: ok-status tasks that lost work exit 1."""

import pytest

from repro.bench import cli, suites
from repro.bench.harness import BenchSpec, BenchSuite, run_suite

pytestmark = pytest.mark.bench


def _suite(*specs: BenchSpec) -> BenchSuite:
    return BenchSuite("gate", "ad-hoc", tuple(specs))


def test_payload_failures_sums_across_ok_tasks():
    result = run_suite(
        _suite(
            BenchSpec("p1", "selftest.poisoned", {"tasks_failed": 2}),
            BenchSpec("p2", "selftest.poisoned", {"tasks_failed": 3}),
            BenchSpec("clean", "selftest.sleep", {"seconds": 0.001}),
        ),
        workers=1,
    )
    assert result.ok  # every task *returned*
    assert result.payload_failures() == 5


def test_payload_failures_ignores_failed_tasks_and_non_counts():
    result = run_suite(
        _suite(
            BenchSpec("boom", "selftest.boom", {"message": "x"}),
            BenchSpec("zero", "selftest.poisoned", {"tasks_failed": 0}),
        ),
        workers=1,
    )
    # the failed task already flips result.ok; its (absent) payload must
    # not double-count, and a clean tasks_failed=0 contributes nothing
    assert not result.ok
    assert result.payload_failures() == 0


def test_cli_exits_nonzero_on_poisoned_payload(monkeypatch, capsys):
    monkeypatch.setitem(
        suites.SUITE_BUILDERS,
        "poisoned",
        lambda smoke=False: _suite(
            BenchSpec("poisoned/x", "selftest.poisoned", {"tasks_failed": 2})
        ),
    )
    assert cli.main(["poisoned", "-q"]) == 1
    err = capsys.readouterr().err
    assert "2 work unit(s) failed" in err
    assert "tasks_failed" in err


def test_cli_exits_zero_when_payloads_are_clean(monkeypatch):
    monkeypatch.setitem(
        suites.SUITE_BUILDERS,
        "clean",
        lambda smoke=False: _suite(
            BenchSpec("clean/x", "selftest.sleep", {"seconds": 0.001})
        ),
    )
    assert cli.main(["clean", "-q"]) == 0


@pytest.mark.parametrize(
    "flags, message",
    [
        (["-w", "0"], "--workers must be at least 1"),
        (["--workers", "-3"], "--workers must be at least 1"),
        (["-w", "2", "--timeout", "0"], "--timeout must be positive"),
        (["--timeout", "-1"], "--timeout must be positive"),
        (["--timeout", "nan"], "--timeout must be positive"),
    ],
    ids=["workers-0", "workers-negative", "timeout-0", "timeout-negative", "timeout-nan"],
)
def test_cli_rejects_bad_worker_and_timeout_counts(flags, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fig11", "--smoke", "-q", *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
