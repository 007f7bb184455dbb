"""The three SCF iteration loops the drivers ran before they shared one.

``diis_loop`` (the closed-shell DIIS reference), ``soscf_loop`` (the
rough phase + Newton hand-over of ``scf_solver="soscf"|"auto"``) and
``uhf_loop`` (the unrestricted DIIS loop) are kept verbatim — with the
rough phase's ADIIS as it stood, re-deriving its energy model at every
objective evaluation — as the oracle for
:meth:`repro.scf.rhf.RHF._run`: each takes a freshly
constructed driver and reuses only its integral plumbing (``_setup``,
``_prepare_xc``, ``_close_jk``) and the ``_fock_energy`` /
``_soscf_response`` closures the Newton solver also iterates.
``tests/scf/test_scf_loop.py`` asserts the shared loop reproduces them
bit for bit.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.optimize as sopt

from repro.chem.molecule import nuclear_repulsion
from repro.scf.diis import DIIS
from repro.scf.guess import (core_guess, density_from_occupations,
                             density_from_orbitals, fermi_occupations,
                             orthogonalizer)
from repro.scf.rhf import SCFResult
from repro.scf.uhf import UHFResult


class ADIIS:
    def __init__(self, max_vec=6):
        self.max_vec = max_vec
        self._D, self._F = [], []

    @property
    def nvec(self):
        return len(self._F)

    def push(self, D, F):
        self._D.append(D.copy())
        self._F.append(F.copy())
        if len(self._F) > self.max_vec:
            self._D.pop(0)
            self._F.pop(0)

    def _objective(self, c):
        n = self.nvec
        Dn, Fn = self._D[-1], self._F[-1]
        d = np.array([float(np.vdot(self._D[i] - Dn, Fn)) for i in range(n)])
        B = np.empty((n, n))
        dD = [self._D[i] - Dn for i in range(n)]
        dF = [self._F[j] - Fn for j in range(n)]
        for i in range(n):
            for j in range(n):
                B[i, j] = float(np.vdot(dD[i], dF[j]))
        return float(2.0 * c @ d + c @ B @ c)

    def coefficients(self):
        n = self.nvec
        if n == 1:
            return np.ones(1)

        def f(t):
            t2 = t * t
            return self._objective(t2 / t2.sum())

        starts = [np.ones(n)]
        vertex = int(np.argmin([self._objective(np.eye(n)[k])
                                for k in range(n)]))
        e = np.full(n, 1e-4)
        e[vertex] = 1.0
        starts.append(e)
        best_c, best_f = None, np.inf
        for t0 in starts:
            res = sopt.minimize(f, t0, method="BFGS",
                                options={"gtol": 1e-10, "maxiter": 200})
            t2 = res.x * res.x
            s = t2.sum()
            if not np.isfinite(s) or s <= 0.0:
                continue
            c = t2 / s
            val = self._objective(c)
            if val < best_f:
                best_c, best_f = c, val
        if best_c is None:
            best_c = np.zeros(n)
            best_c[-1] = 1.0
        return best_c

    def fock(self):
        c = self.coefficients()
        out = np.zeros_like(self._F[-1])
        for ck, Fk in zip(c, self._F):
            out += ck * Fk
        return out


def _next_density(drv, Fd, X, S, D_old, nocc):
    f = X.T @ Fd @ X
    if drv.level_shift > 0.0:
        half = X.T @ S @ (0.5 * D_old) @ S @ X
        f = f + drv.level_shift * (np.eye(f.shape[0]) - half)
    eps, Cp = np.linalg.eigh(f)
    C = X @ Cp
    if drv.smearing > 0.0:
        occ = fermi_occupations(eps, 2.0 * nocc, drv.smearing)
        D = density_from_occupations(C, occ)
    else:
        D = density_from_orbitals(C, nocc)
    if drv.damping > 0.0:
        D = (1.0 - drv.damping) * D + drv.damping * D_old
    return D, C, eps


def diis_loop(drv, D0=None) -> SCFResult:
    t0 = time.perf_counter()
    S, hcore = drv._setup()
    drv._prepare_xc()
    nocc = drv.mol.nelectron // 2
    if D0 is None:
        D, C, eps = core_guess(hcore, S, nocc)
    else:
        D, C, eps = D0.copy(), None, None
    X = orthogonalizer(S)
    enuc = nuclear_repulsion(drv.mol)
    fock_energy = drv._fock_energy(hcore, enuc)
    diis = DIIS(drv.diis_size)
    F = hcore
    energy = 0.0
    ex_energy = 0.0
    history = []
    converged = False
    it = 0
    try:
        for it in range(1, drv.max_iter + 1):
            F, energy, ex_energy = fock_energy(D)
            history.append(energy)
            err = X.T @ (F @ D @ S - S @ D @ F) @ X
            diis.push(F, err)
            err_norm = diis.error_norm()
            may_exit = D0 is None or it > 1
            if may_exit and err_norm < drv.conv_tol:
                converged = True
                break
            Fd = diis.extrapolate()
            D, C, eps = _next_density(drv, Fd, X, S, D, nocc)
    finally:
        drv._close_jk()
    f = X.T @ F @ X
    eps, Cp = np.linalg.eigh(f)
    C = X @ Cp
    return SCFResult(
        energy=energy, energy_nuc=enuc, energy_electronic=energy - enuc,
        converged=converged, niter=it, C=C, eps=eps, D=D, F=F, S=S,
        hcore=hcore, basis=drv.basis, exchange_energy=ex_energy,
        history=history, solver="diis", fock_builds=it,
        wall_s=time.perf_counter() - t0)


def soscf_loop(drv, D0=None) -> SCFResult:
    from repro.scf.soscf import DEFAULT_HANDOFF, NewtonSOSCF

    t0 = time.perf_counter()
    S, hcore = drv._setup()
    drv._prepare_xc()
    nocc = drv.mol.nelectron // 2
    if D0 is None:
        D, C, _ = core_guess(hcore, S, nocc)
    else:
        D, C = D0.copy(), None
    X = orthogonalizer(S)
    enuc = nuclear_repulsion(drv.mol)
    fock_energy = drv._fock_energy(hcore, enuc)
    tr = drv.config.trace
    auto = drv.scf_solver == "auto"
    diis = DIIS(drv.diis_size)
    rough = None if auto else ADIIS(drv.diis_size)
    # the Newton phase's Fock builds bypass an increment history
    solver = NewtonSOSCF(drv._fock_energy(hcore, enuc, drv._jk.build_response),
                         drv._soscf_response(), S, X,
                         nocc, conv_tol=drv.conv_tol, trace=tr)
    if drv.soscf_state is not None:
        solver.set_state(drv.soscf_state)
    builds0, micro0 = solver.fock_builds, solver.micro_iters
    energy = 0.0
    ex_energy = 0.0
    history = []
    err_hist = []
    converged = False
    nrough = 0
    rough_builds = 0
    try:
        max_rough = min(drv.max_iter, 12)
        F = None
        fresh = False
        while nrough < max_rough:
            nrough += 1
            F, energy, ex_energy = fock_energy(D)
            fresh = True
            rough_builds += 1
            history.append(energy)
            err = X.T @ (F @ D @ S - S @ D @ F) @ X
            err_norm = float(np.abs(err).max())
            err_hist.append(err_norm)
            may_exit = D0 is None or nrough > 1
            if may_exit and err_norm < drv.conv_tol:
                converged = True
                break
            if may_exit and err_norm < DEFAULT_HANDOFF:
                break
            if auto and rough is None and len(err_hist) >= 6 \
                    and err_hist[-1] > 0.5 * err_hist[-4]:
                if err_norm < 10.0 * DEFAULT_HANDOFF:
                    break
                rough = ADIIS(drv.diis_size)
            if rough is None:
                diis.push(F, err)
                Fd = diis.extrapolate()
            else:
                rough.push(D, F)
                Fd = rough.fock() if rough.nvec >= 2 else F
            D, C, _ = _next_density(drv, Fd, X, S, D, nocc)
            fresh = False
        niter = nrough
        if not converged:
            state = (F, energy, ex_energy) \
                if (fresh and C is not None and drv.damping == 0.0) \
                else None
            if C is None:
                f = X.T @ F @ X
                _, Cp = np.linalg.eigh(f)
                C = X @ Cp
            out = solver.solve(
                C, max_macro=max(drv.max_iter - nrough, 1),
                history=history, state=state)
            converged = out["converged"]
            D, F = out["D"], out["F"]
            energy, ex_energy = out["energy"], out["exchange_energy"]
            niter = nrough + out["niter"]
    finally:
        drv._close_jk()
    f = X.T @ F @ X
    eps, Cp = np.linalg.eigh(f)
    C = X @ Cp
    return SCFResult(
        energy=energy, energy_nuc=enuc, energy_electronic=energy - enuc,
        converged=converged, niter=niter, C=C, eps=eps, D=D, F=F, S=S,
        hcore=hcore, basis=drv.basis, exchange_energy=ex_energy,
        history=history, solver=drv.scf_solver,
        fock_builds=rough_builds + solver.fock_builds - builds0,
        micro_iters=solver.micro_iters - micro0,
        soscf_state=solver.get_state(),
        wall_s=time.perf_counter() - t0)


def uhf_loop(drv, D0=None) -> UHFResult:
    t0 = time.perf_counter()
    S, hcore = drv._setup()
    X = orthogonalizer(S)
    enuc = nuclear_repulsion(drv.mol)
    na, nb = drv.nalpha, drv.nbeta

    def make_density(C, nocc):
        return C[:, :nocc] @ C[:, :nocc].T

    if D0 is not None:
        Da, Db = D0[0].copy(), D0[1].copy()
    else:
        f = X.T @ hcore @ X
        eps_a, Cp = np.linalg.eigh(f)
        Ca = X @ Cp
        Cb = Ca.copy()
        if drv.break_symmetry and na < Ca.shape[1]:
            theta = 0.25 * np.pi / 2
            h, l = Ca[:, na - 1].copy(), Ca[:, na].copy()
            Ca[:, na - 1] = np.cos(theta) * h + np.sin(theta) * l
            Ca[:, na] = -np.sin(theta) * h + np.cos(theta) * l
        Da = make_density(Ca, na)
        Db = make_density(Cb, nb)

    diis = DIIS(drv.diis_size)
    nbf = drv.basis.nbf
    energy = 0.0
    history = []
    converged = False
    fock_builds = 0
    it = 0
    try:
        for it in range(1, drv.max_iter + 1):
            Dt = Da + Db
            J, _ = drv._jk.build(Da + Db, want_k=False)
            _, Ka = drv._jk.build(Da, want_j=False)
            _, Kb = drv._jk.build(Db, want_j=False)
            fock_builds += 1
            Fa = hcore + J - Ka
            Fb = hcore + J - Kb
            e_el = 0.5 * float(np.einsum("pq,pq->", Dt, hcore)
                               + np.einsum("pq,pq->", Da, Fa)
                               + np.einsum("pq,pq->", Db, Fb))
            energy = e_el + enuc
            history.append(energy)
            err_a = X.T @ (Fa @ Da @ S - S @ Da @ Fa) @ X
            err_b = X.T @ (Fb @ Db @ S - S @ Db @ Fb) @ X
            diis.push(np.vstack([Fa, Fb]), np.vstack([err_a, err_b]))
            may_exit = D0 is None or it > 1
            if may_exit and diis.error_norm() < drv.conv_tol:
                converged = True
                break
            Fd = diis.extrapolate()

            def advance(F, D_old, nocc):
                f = X.T @ F @ X
                if drv.level_shift > 0.0:
                    proj = X.T @ S @ D_old @ S @ X
                    f = f + drv.level_shift * (np.eye(f.shape[0]) - proj)
                eps, Cp = np.linalg.eigh(f)
                C = X @ Cp
                return make_density(C, nocc), C, eps

            Da, Ca, eps_a = advance(Fd[:nbf], Da, na)
            Db, Cb, eps_b = advance(Fd[nbf:], Db, nb)
    finally:
        drv._close_jk()
    eps_a, Cp = np.linalg.eigh(X.T @ Fa @ X)
    Ca = X @ Cp
    eps_b, Cp = np.linalg.eigh(X.T @ Fb @ X)
    Cb = X @ Cp
    return UHFResult(
        energy=energy, energy_nuc=enuc, converged=converged, niter=it,
        C_a=Ca, C_b=Cb, eps_a=eps_a, eps_b=eps_b, D_a=Da, D_b=Db,
        S=S, basis=drv.basis, nalpha=na, nbeta=nb, history=history,
        solver=drv.config.scf_solver, fock_builds=fock_builds,
        wall_s=time.perf_counter() - t0)
