"""In-process simulated communicator with MPI-like semantics.

Executes a *real* SPMD program over N logical ranks inside one Python
process: rank bodies run sequentially and hand their contributions to
this world's collectives, while every operation is metered (bytes
moved, number of collectives) so the machine model can price the run
afterwards.  This is how the distributed HFX build is verified
bit-for-bit against the serial reference without mpi4py.

The one collective the scheme's build needs is the allreduce of the
per-rank partial exchange matrices (the mpi4py lowercase ``allreduce``
the project guides describe).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CommLog", "SimWorld"]


@dataclass
class CommLog:
    """Byte/op accounting of a simulated SPMD execution."""

    allreduce_bytes: int = 0
    allreduce_calls: int = 0

    def merge(self, other: "CommLog") -> None:
        """Accumulate another log into this one."""
        for f in self.__dataclass_fields__:
            setattr(self, f, getattr(self, f) + getattr(other, f))


class SimWorld:
    """Shared state of a simulated SPMD program: the metering log."""

    def __init__(self, nranks: int):
        if nranks < 1:
            raise ValueError("world needs at least one rank")
        self.nranks = nranks
        self.log = CommLog()

    @staticmethod
    def _nbytes(obj) -> int:
        if isinstance(obj, np.ndarray):
            return obj.nbytes
        if isinstance(obj, (bytes, bytearray)):
            return len(obj)
        if isinstance(obj, (int, float, complex, bool)):
            return 8
        if isinstance(obj, (list, tuple)):
            return sum(SimWorld._nbytes(x) for x in obj)
        return 64  # rough pickle overhead for odd objects

    def allreduce_sum(self, contributions: list) -> list:
        """Sum one contribution per rank; every rank receives the total."""
        if len(contributions) != self.nranks:
            raise ValueError("one contribution per rank required")
        total = contributions[0]
        if isinstance(total, np.ndarray):
            total = total.copy()
        for c in contributions[1:]:
            total = total + c
        nb = self._nbytes(contributions[0])
        self.log.allreduce_bytes += nb
        self.log.allreduce_calls += 1
        return [total.copy() if isinstance(total, np.ndarray) else total
                for _ in range(self.nranks)]
