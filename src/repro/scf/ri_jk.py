"""Density-fitted (RI) J/K builder: drop-in replacement for the direct
quartet walk.

One fitted tensor ``B = L^-1 P^T (Q|uv)`` (pivoted Cholesky of the
metric, :func:`~repro.integrals.ri.cholesky_fit`) is assembled per
geometry — the 3-index integrals serially or sharded over the worker
pool by auxiliary-shell slices — and then *every* J/K build of every
SCF iteration is dense linear algebra over its ``rank`` rows:

* RI-J — two GEMMs: ``gamma_K = B[K,uv] D_uv``, then
  ``J_uv = gamma_K B[K,uv]``;
* RI-K — one symmetric rank-k product per eigenvalue sign over the
  occupied space of the density: ``D = V diag(w) V^T`` (rank ``nocc``
  for SCF densities; signed ``w`` keeps response densities from the
  Newton solver exact).  Each sign's scaled orbitals
  ``Vs = (V_sel sqrt|w_sel|)^T`` half-transform the *first* orbital
  index of every ``B[K]`` in one batched product,
  ``W[K,i,v] = Vs[i,u] B[K,u,v]`` (``B[K]`` is symmetric, so this is
  also the second), and ``K += sign * W^T W`` with ``W`` viewed as
  ``(rank * k, nbf)`` — a single exactly symmetric rank-k update.

The builder is a :class:`~repro.scf.fock.JKEngine`
(``build``/``reset``/``close``), so the SCF drivers, the SOSCF response
builds, and the MD force engine get it from
:func:`~repro.scf.fock.make_jk_engine` under ``ExecutionConfig(jk="ri")``
without touching their loops; ``reset`` invalidates the cached tensor
at geometry jumps (the MD path), which is what makes the
cross-iteration caching safe.
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..basis.auxbasis import build_aux_basis
from ..integrals.eri import ERIEngine
from ..integrals.ri import (aux_shard_slices, cholesky_fit, metric_2c,
                            three_center_slab)
from .fock import JKEngine

__all__ = ["RIJKBuilder"]

#: Relative cutoff on density eigenvalues entering the RI-K
#: half-transform; directions below it contribute nothing to K at
#: working precision.
DENSITY_EIG_CUT = 1e-12


def _slab_unit(engine, basis, D, aux_idx, tr, aux, eps):
    """The RI rank-job unit: the 3-index slab of one aux-shell shard
    (``D`` and ``tr`` unused).  Returns ``(slab, aux_idx, nints)``: the
    slab's rows follow ``aux_idx``."""
    slab, nints = three_center_slab(basis, aux, aux_idx, eps, engine=engine)
    return slab, aux_idx, nints


class RIJKBuilder(JKEngine):
    """Density-fitted J/K builds with a cached per-geometry ``B`` tensor.

    Parameters mirror :class:`~repro.scf.fock.DirectJKBuilder`: ``eps``
    is the Schwarz threshold for the 3-index assembly
    (``|(uv|P)| <= Q_uv * Q_P``, sharing the orbital-pair bound cache
    with the direct path), ``config`` selects the executor and carries
    the telemetry sinks, and an externally owned pool can be shared.

    The expensive work — metric, 3-index tensor, ``B`` — runs lazily on
    the first :meth:`build` at a geometry and is reused by every later
    build until a :meth:`reset` to another one; the counters
    ``scf.ri_b_builds`` / ``scf.ri_b_reuses`` in ``--profile`` make the
    caching visible, and ``scf.ri_naux`` / ``scf.ri_rank`` the fitting
    set's size and the rows the fit keeps.  :meth:`close` releases an
    owned pool only: the cached tensor survives and keeps serving
    builds.
    """

    jk = "ri"

    def __init__(self, basis: BasisSet, eps: float = 1e-10,
                 pool=None, config=None, aux: BasisSet | None = None):
        from ..runtime.execconfig import resolve_execution
        from ..runtime.pool import PoolLease

        self.config = resolve_execution(config, owner="RIJKBuilder")
        self.basis = basis
        self.eps = eps
        self.engine = ERIEngine(basis)
        self.aux = aux if aux is not None else build_aux_basis(basis)
        self._B: np.ndarray | None = None      # (rank, nbf, nbf)
        self.b_builds = 0                      # B assemblies (geometries)
        self.b_reuses = 0                      # builds served from cache
        self.ints_3c = 0                       # shell triples, last assembly
        self.lease = PoolLease(basis, self.config, pool, owner="RIJKBuilder")

    # --- lifecycle -----------------------------------------------------------

    def reset(self, basis: BasisSet) -> None:
        """Re-target at a new geometry: rebuild engine and auxiliary
        basis, invalidate ``B``, and re-point a shared pool.

        This is the MD-step path — the per-geometry tensor must never
        leak across a geometry jump.  The basis already served is a
        no-op: ``B`` is the same tensor whatever ran before.
        """
        if basis is self.basis:
            return
        self.basis = basis
        self.engine = ERIEngine(basis)
        self.aux = build_aux_basis(basis)
        self._B = None
        self.lease.reset(basis)

    # --- B-tensor assembly ---------------------------------------------------

    def _assemble(self) -> np.ndarray:
        """The 3-index tensor ``(P|uv)``, one rank job per aux-shell
        shard through the lease.

        In-process one job walks every aux shell and its slab *is* the
        tensor.  On the pool, rank ``r`` evaluates the aux shells of
        shard ``r`` (LPT-packed by function count) and the parent
        scatters each slab's rows into the full tensor by aux-shell
        slice.  Rows for distinct aux shells are disjoint, so any shard
        count — and any recovery re-run — assembles the bit-identical
        tensor.
        """
        from ..runtime.pool import RankJob

        aux = self.aux

        def jobs(pool):
            shards = ([list(range(aux.nshell))] if pool is None
                      else aux_shard_slices(aux, pool.nworkers))
            return [RankJob(rank=r, pairs=shard,
                            cost=float(sum(aux.shells[i].nfunc
                                           for i in shard)))
                    for r, shard in enumerate(shards)]

        slabs, self.ints_3c = self.lease.map(_slab_unit, jobs, self.engine,
                                             args=(aux, self.eps))
        if len(slabs) == 1:
            # one shard holds every aux shell in order
            return slabs[0][0]
        T = np.empty((aux.nbf, self.basis.nbf, self.basis.nbf))
        aslices = aux.shell_slices()
        for slab, shard in slabs.values():
            row = 0
            for ai in shard:
                sl = aslices[ai]
                n = sl.stop - sl.start
                T[sl] = slab[row:row + n]
                row += n
        return T

    def _ensure_b(self) -> np.ndarray:
        """The fitted tensor for the current geometry (cached)."""
        tr = self.config.trace
        if self._B is not None:
            self.b_reuses += 1
            if tr.enabled:
                tr.metrics.count("scf.ri_b_reuses", 1)
            return self._B
        # the metric after the 3-index tensor: the slab kernel's scratch
        # is then never live next to V
        with tr.span("ri.assemble", cat="ri", naux=self.aux.nbf,
                     executor=self.executor):
            T = self._assemble()
        with tr.span("ri.metric", cat="ri", naux=self.aux.nbf):
            V = metric_2c(self.aux)
        with tr.span("ri.fit", cat="ri", naux=self.aux.nbf):
            self._B = cholesky_fit(V, T)
        self.b_builds += 1
        if tr.enabled:
            tr.metrics.count("scf.ri_b_builds", 1)
            tr.metrics.count("scf.ri_ints3c", self.ints_3c)
            tr.metrics.set("scf.ri_naux", self.aux.nbf)
            # rows the pivoted fit keeps: below naux when the metric
            # has dependent directions
            tr.metrics.set("scf.ri_rank", len(self._B))
        return self._B

    def fitted_tensor(self) -> np.ndarray:
        """The cached ``B[K,uv]`` tensor (assembled on first use), shape
        ``(rank, nbf, nbf)``.

        Serves tests and external callers that contract ``B``
        themselves; no J/K path under ``repro`` reads it (the
        distributed exchange refuses ``jk="ri"``)."""
        return self._ensure_b()

    # --- J/K contractions ----------------------------------------------------

    def build(self, D: np.ndarray, want_j: bool = True, want_k: bool = True
              ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Fitted J and/or K for density ``D`` (AO basis, symmetric)."""
        tr = self.config.trace
        with tr.span("ri.build", cat="scf", executor=self.executor):
            B = self._ensure_b()
            nbf = self.basis.nbf
            J = K = None
            with tr.span("ri.contract", cat="ri", want_j=want_j,
                         want_k=want_k):
                Bf = B.reshape(len(B), nbf * nbf)
                if want_j:
                    gamma = Bf @ np.asarray(D, dtype=np.float64).ravel()
                    J = (gamma @ Bf).reshape(nbf, nbf)
                if want_k:
                    K = self._exchange(B, D)
            if tr.enabled:
                tr.metrics.count("scf.ri_builds", 1)
                tr.metrics.absorb_engine(self.engine)
        return J, K

    @staticmethod
    def _exchange(B: np.ndarray, D: np.ndarray) -> np.ndarray:
        """``K_uv = sum_K (B[K] D B[K])_uv``: one rank-k product
        ``W^T W`` per eigenvalue sign of ``D``, exactly symmetric."""
        nbf = B.shape[1]
        w, V = np.linalg.eigh(np.asarray(D, dtype=np.float64))
        wmax = float(np.abs(w).max()) if w.size else 0.0
        keep = np.abs(w) > DENSITY_EIG_CUT * max(wmax, 1e-300)
        K = np.zeros((nbf, nbf))
        for sel, sign in ((keep & (w > 0.0), 1.0), (keep & (w < 0.0), -1.0)):
            if not sel.any():
                continue
            Vs = (V[:, sel] * np.sqrt(np.abs(w[sel]))).T   # (k, nbf)
            # W[K,i,v] = sum_u Vs[i,u] B[K,u,v]
            W = np.matmul(Vs, B).reshape(-1, nbf)          # (rank*k, nbf)
            K += sign * (W.T @ W)
            del W          # one sign's W alive at a time
        return K
