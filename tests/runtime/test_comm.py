"""Tests for the in-process simulated communicator (the allreduce the
distributed exchange build runs, and its metering)."""

import numpy as np
import pytest

from repro.runtime.comm import SimWorld


def test_world_size_validated():
    with pytest.raises(ValueError):
        SimWorld(0)


def test_allreduce_sum_arrays():
    w = SimWorld(4)
    contribs = [np.full((3, 3), float(r)) for r in range(4)]
    out = w.allreduce_sum(contribs)
    assert len(out) == 4
    for o in out:
        assert np.allclose(o, 6.0)   # 0+1+2+3
    # results are independent copies
    out[0][0, 0] = 99.0
    assert out[1][0, 0] == 6.0


def test_allreduce_requires_one_per_rank():
    w = SimWorld(3)
    with pytest.raises(ValueError):
        w.allreduce_sum([np.ones(2)])


def test_allreduce_metering():
    w = SimWorld(2)
    w.allreduce_sum([np.ones(100), np.ones(100)])
    assert w.log.allreduce_calls == 1
    assert w.log.allreduce_bytes == 800


def test_log_merge():
    from repro.runtime.comm import CommLog

    a = CommLog(allreduce_bytes=10, allreduce_calls=2)
    b = CommLog(allreduce_bytes=5)
    a.merge(b)
    assert a.allreduce_bytes == 15
    assert a.allreduce_calls == 2


def test_nbytes_estimates():
    w = SimWorld(1)
    assert w._nbytes(np.zeros(10)) == 80
    assert w._nbytes(b"abcd") == 4
    assert w._nbytes(3.14) == 8
    assert w._nbytes([np.zeros(2), np.zeros(3)]) == 40
