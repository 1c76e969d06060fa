from __future__ import annotations

from svdrank.selftest import run_selftest


def test_selftest_passes():
    assert run_selftest(verbose=False)
