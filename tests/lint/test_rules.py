"""Each lint rule: demonstrated by a failing fixture, quiet on a passing one."""

from pathlib import Path

import pytest

from repro.lint import run_lint

FIXTURES = Path(__file__).parent / "fixtures"

CASES = [
    ("guarded-by", "guarded_by_fail.py", 2, "guarded_by_ok.py"),
    ("no-blocking-under-lock", "no_blocking_fail.py", 6, "no_blocking_ok.py"),
    ("no-nested-rwlock", "nested_rwlock_fail.py", 2, "nested_rwlock_ok.py"),
    ("no-pickled-terms", "cluster_pickle_fail.py", 2, "cluster_pickle_ok.py"),
    ("wall-clock-duration", "wall_clock_fail.py", 3, "wall_clock_ok.py"),
    (
        "telemetry-instrument-in-hot-loop",
        "telemetry_loop_fail.py",
        2,
        "telemetry_loop_ok.py",
    ),
]


@pytest.mark.parametrize("rule, fail_name, expected, ok_name", CASES)
def test_rule_fires_on_failing_fixture(rule, fail_name, expected, ok_name):
    findings, _ = run_lint([FIXTURES / fail_name])
    fired = [f for f in findings if f.rule == rule]
    assert len(fired) == expected, [f.render() for f in findings]
    # the failing fixture must not trip unrelated rules
    assert {f.rule for f in findings} == {rule}


@pytest.mark.parametrize("rule, fail_name, expected, ok_name", CASES)
def test_rule_quiet_on_passing_fixture(rule, fail_name, expected, ok_name):
    findings, _ = run_lint([FIXTURES / ok_name])
    assert findings == [], [f.render() for f in findings]


def test_findings_carry_locations_and_messages():
    findings, _ = run_lint([FIXTURES / "guarded_by_fail.py"])
    for finding in findings:
        assert finding.line > 0
        assert finding.path.endswith("guarded_by_fail.py")
        assert "self._lock" in finding.message


def test_rule_filter_restricts_to_selected_rules():
    findings, _ = run_lint(
        [FIXTURES], rule_names=["wall-clock-duration"]
    )
    assert findings, "expected wall-clock findings from the corpus"
    assert {f.rule for f in findings} == {"wall-clock-duration"}


def test_repository_is_lint_clean():
    """The acceptance bar: zero unsuppressed findings on the live tree."""
    import repro

    findings, engine = run_lint([Path(repro.__file__).parent])
    assert findings == [], [f.render() for f in findings]
    assert engine.files_checked > 50
    # the deliberate exceptions are suppressed with comments, not absent
    assert engine.suppressed_count >= 3
