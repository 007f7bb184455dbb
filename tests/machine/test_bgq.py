"""Tests for the BG/Q machine description."""

import numpy as np
import pytest

from repro.machine.bgq import BGQConfig, SEQUOIA_TORUS, bgq_racks
from repro.machine.node import NodeComputeModel
from repro.machine.simd import ERI_KERNEL, SIMDModel


pytestmark = pytest.mark.model


def test_full_machine_headline_numbers():
    cfg = bgq_racks(96)
    assert cfg.nodes == 98304
    assert cfg.total_threads == 6_291_456   # the paper's thread count
    assert cfg.racks == 96


def test_sequoia_torus_shape():
    cfg = bgq_racks(96)
    prod = 1
    for d in cfg.torus_dims:
        prod *= d
    assert prod == 98304
    assert cfg.torus_dims[-1] == 2   # E dimension is always 2


def test_subrack_partitions():
    cfg = bgq_racks(0.5)
    assert cfg.nodes == 512
    assert cfg.total_threads == 512 * 64


def test_invalid_torus_rejected():
    with pytest.raises(ValueError):
        BGQConfig(nodes=10, torus_dims=(2, 2, 2, 1, 1))  # product 8 != 10


def test_invalid_ranks_per_node():
    with pytest.raises(ValueError):
        bgq_racks(1, ranks_per_node=0)


def test_ranks_per_node_divides_cores():
    cfg = bgq_racks(1, ranks_per_node=16)
    assert cfg.nranks == 1024 * 16
    assert cfg.cores_per_rank == 1
    assert cfg.threads_per_rank == 4


def test_smt_throughput_monotone():
    cfg = bgq_racks(1)
    rates = [cfg.core_throughput(t) for t in (1, 2, 3, 4)]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[-1] <= 1.01   # cannot exceed core peak


def test_smt_bounds():
    cfg = bgq_racks(1)
    with pytest.raises(ValueError):
        cfg.core_throughput(0)
    with pytest.raises(ValueError):
        cfg.core_throughput(5)


def test_thread_flops_per_thread_decreases_with_smt():
    """4 threads share a core: per-thread rate drops, aggregate rises."""
    cfg = bgq_racks(1)
    per1 = NodeComputeModel(cfg, smt=1).thread_rate()
    per4 = NodeComputeModel(cfg, smt=4).thread_rate()
    assert per4 < per1
    assert 4 * per4 > per1  # but the core gets faster overall


def test_simd_multiplier():
    """QPX multiplies the one thread rate by the ERI kernel's vector
    speedup, not by a flat width x efficiency."""
    cfg = bgq_racks(1)
    with_simd = NodeComputeModel(cfg, simd=True).thread_rate()
    without = NodeComputeModel(cfg, simd=False).thread_rate()
    speedup = SIMDModel(cfg.simd_width, cfg.simd_efficiency).speedup(ERI_KERNEL)
    assert np.isclose(with_simd / without, speedup)
    assert 1.0 < speedup < cfg.simd_width * cfg.simd_efficiency


def test_rank_flops_aggregates():
    """A rank's 64 threads together sustain every core's SMT4
    throughput at the kernel's vector speedup."""
    cfg = bgq_racks(1)
    node = NodeComputeModel(cfg)
    peak_core = cfg.clock_hz * cfg.flops_per_core_cycle
    speedup = SIMDModel(cfg.simd_width, cfg.simd_efficiency).speedup(ERI_KERNEL)
    assert node.nthreads == 64
    assert np.isclose(node.thread_rate() * node.nthreads,
                      cfg.cores_per_rank * cfg.core_throughput(4) * peak_core
                      * speedup / cfg.simd_width)


def test_peak_per_node_204_gflops():
    cfg = bgq_racks(1)
    peak = cfg.cores_per_node * cfg.clock_hz * cfg.flops_per_core_cycle
    assert np.isclose(peak, 204.8e9)
