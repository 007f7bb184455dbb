"""IBM Blue Gene/Q machine description.

The paper's scaling platform: racks of 1,024 nodes; each node a 16-core
A2 chip at 1.6 GHz with 4-way SMT (64 hardware threads/node) and the
QPX 4-wide double-precision SIMD unit; nodes joined by a 5-D torus with
2 GB/s per link per direction and hardware collective support.

96 racks = 98,304 nodes = 1,572,864 cores = 6,291,456 hardware threads —
the thread count of the paper's headline run.

Only *ratios* of these numbers matter to the reproduction (compute
versus communication, serial versus parallel sections); the absolute
per-thread throughput is a calibration constant, as documented in
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BGQConfig", "bgq_racks", "SEQUOIA_TORUS"]

# The full 96-rack Sequoia torus shape (A, B, C, D, E); E is always 2.
SEQUOIA_TORUS: tuple[int, int, int, int, int] = (16, 16, 16, 12, 2)


@dataclass(frozen=True)
class BGQConfig:
    """A BG/Q partition.

    Attributes
    ----------
    nodes:
        Number of compute nodes in the partition.
    torus_dims:
        5-D torus shape whose product equals ``nodes``.
    cores_per_node / smt_per_core:
        16 and up to 4 on BG/Q.
    clock_hz:
        1.6 GHz A2 cores.
    flops_per_core_cycle:
        8 (4-wide QPX FMA).
    link_bandwidth / link_latency:
        2 GB/s per direction per link; ~0.64 us nearest-neighbor
        latency.
    collective_latency:
        Per-hop latency of the hardware collective network logic.
    thread_throughput_fraction:
        Fraction of core peak a *single* hardware thread sustains on the
        ERI kernel (the A2 is an in-order core: one thread cannot fill
        the pipeline, which is exactly why the paper uses 4-way SMT).
    smt_efficiency:
        Multiplicative core-throughput factor when running 1/2/3/4
        hardware threads per core.
    simd_width / simd_efficiency:
        QPX vector width and per-lane efficiency; the one per-thread
        rate, :meth:`repro.machine.node.NodeComputeModel.thread_rate`,
        turns them into the ERI kernel's vector speedup.
    """

    nodes: int
    torus_dims: tuple[int, int, int, int, int]
    cores_per_node: int = 16
    smt_per_core: int = 4
    clock_hz: float = 1.6e9
    flops_per_core_cycle: float = 8.0
    link_bandwidth: float = 2.0e9       # bytes/s per direction
    link_latency: float = 0.64e-6       # seconds, nearest neighbor
    collective_latency: float = 0.25e-6  # seconds per hop on the tree
    mpi_overhead: float = 2.5e-6        # software injection overhead, s
    thread_throughput_fraction: float = 0.55
    smt_efficiency: tuple[float, float, float, float] = (1.0, 1.55, 1.72, 1.82)
    simd_width: int = 4
    simd_efficiency: float = 0.85
    ranks_per_node: int = 1

    def __post_init__(self) -> None:
        prod = 1
        for d in self.torus_dims:
            prod *= d
        if prod != self.nodes:
            raise ValueError(f"torus {self.torus_dims} holds {prod} nodes, "
                             f"not {self.nodes}")
        if self.ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")

    # --- derived sizes --------------------------------------------------------

    @property
    def nranks(self) -> int:
        """MPI ranks in the partition."""
        return self.nodes * self.ranks_per_node

    @property
    def cores_per_rank(self) -> int:
        """Cores available to each rank."""
        return self.cores_per_node // self.ranks_per_node

    @property
    def threads_per_rank(self) -> int:
        """Hardware threads per rank (cores x SMT)."""
        return self.cores_per_rank * self.smt_per_core

    @property
    def total_threads(self) -> int:
        """Hardware threads in the partition (the paper's headline axis)."""
        return self.nodes * self.cores_per_node * self.smt_per_core

    @property
    def racks(self) -> float:
        """Rack count (1,024 nodes per rack)."""
        return self.nodes / 1024.0

    # --- core throughput ------------------------------------------------------

    def core_throughput(self, threads_per_core: int) -> float:
        """Core-aggregate instruction throughput (fraction of peak) when
        ``threads_per_core`` hardware threads are active."""
        if not 1 <= threads_per_core <= self.smt_per_core:
            raise ValueError(f"threads_per_core must be in [1, {self.smt_per_core}]")
        return (self.thread_throughput_fraction
                * self.smt_efficiency[threads_per_core - 1])


def _torus_shape(nodes: int) -> tuple[int, int, int, int, int]:
    """A plausible 5-D torus shape for a partition of ``nodes`` nodes.

    BG/Q partitions come in power-of-two midplane multiples with E = 2;
    we factor greedily towards the balanced shapes IBM used.
    """
    if nodes % 2 == 0:
        rem = nodes // 2
        e = 2
    else:
        rem, e = nodes, 1
    dims = [1, 1, 1, 1]
    i = 0
    # peel factors smallest-first to keep dimensions balanced
    n = rem
    f = 2
    factors = []
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for f in sorted(factors, reverse=True):
        j = dims.index(min(dims))
        dims[j] *= f
        i += 1
    dims_sorted = sorted(dims, reverse=True)
    return (dims_sorted[0], dims_sorted[1], dims_sorted[2], dims_sorted[3], e)


def bgq_racks(racks: float, ranks_per_node: int = 1, **overrides) -> BGQConfig:
    """Convenience constructor: a partition of ``racks`` BG/Q racks.

    Fractional rack counts model sub-rack partitions (midplanes, node
    boards) for small-scale studies.
    """
    nodes = int(round(racks * 1024))
    if nodes < 1:
        raise ValueError("partition must contain at least one node")
    dims = overrides.pop("torus_dims", _torus_shape(nodes))
    return BGQConfig(nodes=nodes, torus_dims=dims,
                     ranks_per_node=ranks_per_node, **overrides)
