"""Acceptance gate: the ten primary verification checks, one line each.

Every check runs through the shared registry that also backs the
verify-paper subcommand, with the default seed and exact arithmetic.
The whole registry runs once per session and every test reads that one
report; each check draws from its own named generator, so a check's
record does not depend on which others ran. That the `only` filter of
verify-paper --only cNN picks exactly one check is tested with the checks
stubbed out.
Run with -v (or -s to see the lines as they print).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from normtower import verify

SRC = str(Path(__file__).resolve().parent.parent / "src")

CHECK_IDS = [check_id for check_id, _, _ in verify.CHECKS]


@pytest.fixture(scope="session")
def report():
    return verify.run_checks(seed=0)


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_acceptance(report, check_id):
    records = [r for r in report.records if r.check_id == check_id]
    assert len(records) == 1
    record = records[0]
    status = "PASS" if record.passed else "FAIL"
    print(f"{status} {record.check_id} {record.name}: {record.detail}")
    assert record.passed, f"{record.check_id} {record.name}: {record.detail}"


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_only_selects_one_check(monkeypatch, check_id):
    ran = []
    stubs = tuple(
        (cid, name, lambda ctx, cid=cid: ran.append(cid) or "stub")
        for cid, name, _ in verify.CHECKS
    )
    monkeypatch.setattr(verify, "CHECKS", stubs)
    report = verify.run_checks(only=check_id, seed=0)
    assert [r.check_id for r in report.records] == [check_id]
    assert ran == [check_id]
    assert report.passed


def test_registry_is_complete_and_sorted(report):
    assert len(verify.CHECKS) == 10
    assert CHECK_IDS == sorted(CHECK_IDS)
    assert [r.check_id for r in report.records] == CHECK_IDS
    assert report.passed


def test_checks_fail_under_python_O():
    # python -O strips assert statements; a check must still fail there
    script = (
        "from normtower import m_invariant, verify\n"
        "assert False, 'not running under -O'\n"
        "m_invariant.compute_m = lambda spec: 42\n"
        "record, = verify.run_checks(only='c03').records\n"
        "print(record.check_id, record.passed, record.detail)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
    )
    assert proc.stdout == "c03 False AssertionError: \n"
