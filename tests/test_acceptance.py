"""Acceptance battery: one test per numbered check, printed as it runs.

Check 11 is expected to fail: the fusion twist genuinely moves the
image of the I2(6) embedding (the top label u1 is carried to u3), so
that leg of the check cannot pass.  It is marked as a strict expected
failure so a silent fix would be flagged.
"""

import pytest

from planalg.selftest import CHECKS, KNOWN_FAILURES, run_check


def _param(entry):
    number, name, budget, _ = entry
    if number in KNOWN_FAILURES:
        marks = pytest.mark.xfail(
            reason="fusion twist moves the I2(6) image (u1 label maps to u3)",
            strict=True,
        )
        return pytest.param(number, budget, id=f"{number:02d}-{name}",
                            marks=marks)
    return pytest.param(number, budget, id=f"{number:02d}-{name}")


@pytest.mark.parametrize("number,budget", [_param(e) for e in CHECKS])
def test_acceptance(number, budget, capsys):
    res = run_check(number)
    with capsys.disabled():
        print("\n".join(res.lines()))
    assert res.passed, res.detail
    assert res.seconds <= budget
