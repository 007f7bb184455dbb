"""Bit drill of the direct J/K walk: one line per build or SCF, each a
sha256 of J and K or an energy's ``float.hex()``.

Run it on two trees and ``diff`` the outputs; an empty diff says the
two trees build the same bits on every route it drives::

    PYTHONPATH=src python tests/scf/jk_bit_drill.py > after.txt

It covers, on the water dimer: full, increment (``blocks=``), J-only,
K-only and response builds of :class:`DirectJKBuilder` and
:class:`IncrementalExchange`, serial and pooled at 1, 2 and 3 workers,
on both kernels; the distributed scheme's K; direct HF and PBE0 SCFs
under DIIS and ``auto`` on (H2O)2, (H2O)3 and Li2O2; and a pooled
direct HF SCF on (H2O)2.  BLAS is pinned to one thread before numpy
loads, since a threaded BLAS may sum in another order from run to run.
Not a pytest module (no ``test_`` prefix): a run takes ~15 s on one
core.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402

import numpy as np  # noqa: E402

from repro.basis import build_basis  # noqa: E402
from repro.chem import builders  # noqa: E402
from repro.hfx import IncrementalExchange, distributed_exchange  # noqa: E402
from repro.runtime import ExecutionConfig  # noqa: E402
from repro.scf import DirectJKBuilder, run_rhf  # noqa: E402
from repro.scf.dft import run_rks  # noqa: E402


def digest(*mats) -> str:
    h = hashlib.sha256()
    for M in mats:
        h.update(b"-" if M is None else np.ascontiguousarray(M).tobytes())
    return h.hexdigest()[:24]


def symmetric(nbf: int, seed: int, scale: float = 1.0) -> np.ndarray:
    A = np.random.default_rng(seed).standard_normal((nbf, nbf))
    return scale * (A + A.T) / nbf


def builds(basis, kernel: str, executor: str, nworkers=None):
    """Every build kind on one pair of engines, in the order an SCF
    mixes them."""
    cfg = ExecutionConfig(kernel=kernel, executor=executor,
                          nworkers=nworkers)
    label = f"{kernel} {executor}{nworkers or ''}"
    nbf = basis.nbf
    plain = DirectJKBuilder(basis, config=cfg)
    inc = IncrementalExchange(basis, config=cfg, rebuild_every=100)
    try:
        D = symmetric(nbf, 1) + np.eye(nbf)
        print(label, "full", digest(*plain.build(D)))
        print(label, "inc0", digest(*inc.build(D)))
        for step, (seed, scale) in enumerate(((2, 1e-1), (3, 1e-5))):
            D = D + symmetric(nbf, seed, scale)
            print(label, f"inc{step + 1}", digest(*inc.build(D)),
                  inc.last_quartets)
        dD = symmetric(nbf, 4, 1e-3)
        blocks = inc._block_max(dD)
        print(label, "blocks", digest(*plain.build(
            dD, blocks=blocks, eps=inc.increment_eps)))
        D2 = symmetric(nbf, 5) + np.eye(nbf)
        print(label, "warm", digest(*plain.build(D2)))
        print(label, "j-only", digest(*inc.build(D2, want_k=False)))
        print(label, "k-only", digest(*inc.build(D2, want_j=False)))
        print(label, "response", digest(*inc.build_response(
            symmetric(nbf, 6, 1e-2))))
    finally:
        plain.close()
        inc.close()


def main() -> None:
    basis = build_basis(builders.water_dimer())
    for kernel in ("batched", "quartet"):
        builds(basis, kernel, "serial")
        for nworkers in (1, 2, 3):
            builds(basis, kernel, "process", nworkers)
    D = symmetric(basis.nbf, 7) + np.eye(basis.nbf)
    for kernel in ("batched", "quartet"):
        for executor, nworkers in (("serial", None), ("process", 2)):
            K, *_ = distributed_exchange(
                basis, D, nranks=3, config=ExecutionConfig(
                    kernel=kernel, executor=executor, nworkers=nworkers))
            print("distributed", kernel, executor, digest(K))
    systems = (("w2", builders.water_dimer),
               ("w3", lambda: builders.water_cluster(3)),
               ("li2o2", builders.li2o2))
    for name, make in systems:
        mol = make()
        for solver in ("diis", "auto"):
            cfg = ExecutionConfig(kernel="batched", scf_solver=solver)
            hf = run_rhf(mol, mode="direct", config=cfg)
            print("scf", name, "hf", solver, hf.energy.hex(), hf.niter,
                  hf.fock_builds)
            ks = run_rks(mol, functional="pbe0", mode="direct", config=cfg)
            print("scf", name, "pbe0", solver, ks.energy.hex(), ks.niter,
                  ks.fock_builds)
    pooled = run_rhf(builders.water_dimer(), mode="direct",
                     config=ExecutionConfig(kernel="batched",
                                            executor="process", nworkers=2))
    print("scf w2 hf pooled2", pooled.energy.hex(), pooled.niter)


if __name__ == "__main__":
    main()
