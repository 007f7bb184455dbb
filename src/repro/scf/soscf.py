"""Second-order SCF: Newton orbital optimization + ADIIS.

Every SCF iteration costs one J/K build — the exact operation the
paper distributes across millions of BG/Q threads — so cutting the
iteration count is the biggest remaining lever on time-to-solution.
This module supplies the two pieces of the accelerated convergence
stack the drivers dispatch on (``ExecutionConfig(scf_solver=...)``):

* :class:`ADIIS` — energy-aware Fock interpolation over the *simplex*
  of stored iterates (coefficients are nonnegative and sum to one, so
  the interpolated state is always physical), which is what makes
  rough starting guesses tractable where plain DIIS oscillates; the
  SCF loop (:meth:`repro.scf.rhf.RHF._run`) runs it as the rough phase
  of ``scf_solver="soscf"`` and after an ``"auto"`` DIIS stall;
* :class:`NewtonSOSCF` — a trust-radius Newton (augmented-Hessian
  family) orbital optimizer: the SCF energy is parametrized by an
  anti-symmetric occupied-virtual rotation ``C(kappa) = C exp(kappa)``
  and each macro-iteration solves the Newton equations
  ``H x = -g`` by preconditioned *truncated conjugate-gradient*
  micro-iterations (Steihaug-Toint: stop at the trust boundary or at
  negative curvature).  Every Hessian-vector product costs one J/K
  *response* build of a rank-limited perturbation density — routed
  through the same builders as the Fock build, so the process pool,
  the batched kernel, and screening all ride along for free.

Closed-shell formulas (spin-summed, real orbitals; ``F`` in MO basis,
``a,b`` virtual, ``i,j`` occupied):

    g_ai      = 4 F_ai
    (H x)_ai  = 4 (F_ab x_bi - x_aj F_ji) + 8 [C_v^T G(d) C_o]_ai
    d         = C_v x C_o^T + C_o x^T C_v^T
    G(d)      = J(d) - 0.5 * a_hfx * K(d)

For hybrid/semilocal DFT the two-electron response gains the XC-kernel
term ``f_xc[D]·d``, evaluated seminumerically by the Kohn-Sham driver
(a central finite difference of the grid potential around the base
density ``D`` — see :meth:`repro.scf.dft.RKS._soscf_response`); the
Hessian is then exact to finite-difference accuracy and macro
convergence stays quadratic for PBE/PBE0, not just for Hartree-Fock.

The solver is :class:`repro.runtime.Restartable`: its adaptive state
(trust radius, cumulative build/micro counters) survives
checkpoint/restore, so an MD trajectory's SOSCF warm starts resume
exactly where the killed run left off.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.optimize as sopt

from ..runtime.checkpoint import CheckpointError

__all__ = ["ADIIS", "NewtonSOSCF"]

#: Commutator-norm threshold below which the rough (ADIIS or DIIS)
#: phase hands the SCF to the Newton solver.  Tuned on the
#: electrolyte test set: a later handoff wastes rough iterations that
#: Newton would cover quadratically, a much earlier one risks dropping
#: the solver into the basin of a metastable saddle.
DEFAULT_HANDOFF = 0.15

#: Trust-radius schedule (Frobenius norm of the orbital-rotation step,
#: radians-like units).
TRUST_START, TRUST_MIN, TRUST_MAX = 0.4, 1e-3, 1.0

#: Floor on the diagonal-Hessian preconditioner (4*(eps_a - eps_i)
#: units): keeps near-degenerate frontier pairs from blowing up the
#: first CG direction.
HDIAG_MIN = 0.2


def _trace_dot(a: np.ndarray, b: np.ndarray) -> float:
    """<A, B> = sum_pq A_pq B_pq (both symmetric here)."""
    return float(np.vdot(a, b))


class ADIIS:
    """Augmented-Roothaan-Hall DIIS (Hu & Yang, JCP 132, 054109, 2010).

    Stores ``(D, F)`` iterates and interpolates the Fock matrix over the
    *simplex* of them, minimizing ``f(c) = 2 sum_i c_i <D_i - D_n, F_n>
    + sum_ij c_i c_j <D_i - D_n, F_j - F_n>`` — an energy-function model
    anchored at the *latest* iterate, which makes it robust from rough
    starting guesses.

    The simplex constraint is enforced by the smooth substitution
    ``c_k = t_k^2 / sum(t^2)`` so an unconstrained BFGS solves the
    (small, dense) minimization; both the uniform start and the best
    single-iterate vertex are tried and the lower objective wins.
    """

    def __init__(self, max_vec: int = 6):
        if max_vec < 2:
            raise ValueError("ADIIS needs max_vec >= 2")
        self.max_vec = max_vec
        self._D: list[np.ndarray] = []
        self._F: list[np.ndarray] = []

    @property
    def nvec(self) -> int:
        """Number of stored iterates."""
        return len(self._F)

    def push(self, D: np.ndarray, F: np.ndarray) -> None:
        """Add a density/Fock pair, evicting the oldest."""
        self._D.append(D.copy())
        self._F.append(F.copy())
        if len(self._F) > self.max_vec:
            self._D.pop(0)
            self._F.pop(0)

    def coefficients(self) -> np.ndarray:
        """Simplex coefficients minimizing the ARH energy model."""
        n = self.nvec
        if n == 0:
            raise RuntimeError("ADIIS: no iterates stored — push() at least "
                               "one (D, F) pair first")
        if n == 1:
            return np.ones(1)
        Dn, Fn = self._D[-1], self._F[-1]
        dD = [Di - Dn for Di in self._D]
        dF = [Fj - Fn for Fj in self._F]
        d = np.array([_trace_dot(dD[i], Fn) for i in range(n)])
        B = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                B[i, j] = _trace_dot(dD[i], dF[j])

        def objective(c):
            return float(2.0 * c @ d + c @ B @ c)

        def f(t):
            t2 = t * t
            return objective(t2 / t2.sum())

        starts = [np.ones(n)]
        vertex = int(np.argmin([objective(np.eye(n)[k]) for k in range(n)]))
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
            val = objective(c)
            if val < best_f:
                best_c, best_f = c, val
        if best_c is None:      # pathological optimizer failure
            best_c = np.zeros(n)
            best_c[-1] = 1.0
        return best_c

    def fock(self) -> np.ndarray:
        """The interpolated Fock matrix ``sum_i c_i F_i``."""
        c = self.coefficients()
        out = np.zeros_like(self._F[-1])
        for ck, Fk in zip(c, self._F):
            out += ck * Fk
        return out


class NewtonSOSCF:
    """Trust-radius Newton orbital optimizer (macro/micro iterations).

    Parameters
    ----------
    fock_energy:
        ``fock_energy(D) -> (F, energy, exchange_energy)`` — one full
        Fock build at density ``D`` (the expensive operation; counted
        in :attr:`fock_builds`).
    response:
        ``response(d, D) -> G(d)`` — the two-electron response of a
        (symmetric, not necessarily idempotent) perturbation density
        ``d`` around the base density ``D``:
        ``J(d) - 0.5*a_hfx*K(d)`` plus, for Kohn-Sham, the XC-kernel
        term ``f_xc[D]·d``.  One call per CG micro-iteration (counted
        in :attr:`micro_iters`).
    S, X:
        AO overlap and (possibly rectangular, lin-dep-projected)
        orthogonalizer — used for the commutator convergence measure,
        identical to the DIIS loop's.
    nocc:
        Doubly occupied orbital count.
    conv_tol:
        Max-abs commutator threshold (same measure as the DIIS loop).
    trace:
        Telemetry tracer (``None``/NullTracer for the silent path).
    """

    def __init__(self, fock_energy, response, S: np.ndarray, X: np.ndarray,
                 nocc: int, conv_tol: float = 1e-8, max_micro: int = 16,
                 trace=None):
        from ..runtime.telemetry import NULL_TRACER

        self.fock_energy = fock_energy
        self.response = response
        self.S = S
        self.X = X
        self.nocc = nocc
        self.conv_tol = conv_tol
        self.max_micro = max_micro
        self.trace = trace if trace is not None else NULL_TRACER
        # adaptive/cumulative state (Restartable)
        self.trust_radius = TRUST_START
        self.fock_builds = 0
        self.micro_iters = 0
        self.macro_iters = 0
        self.rejected_steps = 0

    # --- Restartable protocol -------------------------------------------------

    def get_state(self) -> dict:
        """Adaptive trust radius + cumulative counters (picklable)."""
        return {
            "kind": "soscf",
            "trust_radius": float(self.trust_radius),
            "fock_builds": int(self.fock_builds),
            "micro_iters": int(self.micro_iters),
            "macro_iters": int(self.macro_iters),
            "rejected_steps": int(self.rejected_steps),
        }

    def set_state(self, state: dict) -> None:
        """Resume the adaptive state of a snapshotted solver."""
        if not isinstance(state, dict) or state.get("kind") != "soscf":
            raise CheckpointError(
                f"NewtonSOSCF: snapshot holds "
                f"{state.get('kind') if isinstance(state, dict) else state!r}"
                f" state, not 'soscf'")
        tr = float(state.get("trust_radius", TRUST_START))
        if not np.isfinite(tr) or tr <= 0.0:
            raise CheckpointError(
                f"NewtonSOSCF: snapshot trust radius {tr!r} is not a "
                f"positive finite number")
        self.trust_radius = min(max(tr, TRUST_MIN), TRUST_MAX)
        self.fock_builds = int(state.get("fock_builds", 0))
        self.micro_iters = int(state.get("micro_iters", 0))
        self.macro_iters = int(state.get("macro_iters", 0))
        self.rejected_steps = int(state.get("rejected_steps", 0))

    # --- linear algebra helpers ----------------------------------------------

    def _commutator_norm(self, F: np.ndarray, D: np.ndarray) -> float:
        X, S = self.X, self.S
        err = X.T @ (F @ D @ S - S @ D @ F) @ X
        return float(np.abs(err).max())

    def _rotate(self, C: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Apply the occupied-virtual rotation ``C exp(kappa(x))``."""
        nmo = C.shape[1]
        no = self.nocc
        kappa = np.zeros((nmo, nmo))
        kappa[no:, :no] = x
        kappa[:no, no:] = -x.T
        return C @ sla.expm(kappa)

    def _hvp(self, x: np.ndarray, F_mo: np.ndarray, C: np.ndarray,
             D: np.ndarray) -> np.ndarray:
        """Hessian-vector product ``(H x)_ai`` (one response build);
        ``D`` is the base density the response differentiates around
        (used by the Kohn-Sham XC-kernel term)."""
        no = self.nocc
        Co, Cv = C[:, :no], C[:, no:]
        one = 4.0 * (F_mo[no:, no:] @ x - x @ F_mo[:no, :no])
        half = Cv @ x @ Co.T
        d = half + half.T
        with self.trace.span("soscf.response", cat="soscf"):
            G = self.response(d, D)
        self.micro_iters += 1
        self.trace.count("scf.micro_iters", 1)
        return one + 8.0 * (Cv.T @ G @ Co)

    def _solve_step(self, g: np.ndarray, F_mo: np.ndarray, C: np.ndarray,
                    D: np.ndarray, hdiag: np.ndarray, radius: float,
                    rtol: float) -> tuple[np.ndarray, float, bool]:
        """Truncated-CG (Steihaug-Toint) solve of ``H x = -g`` inside
        the trust region.

        Returns ``(x, predicted_reduction, hit_boundary)``; the
        predicted reduction uses the CG identity
        ``m(x) = (g.x - x.r) / 2`` so no extra Hessian product is
        spent on bookkeeping.
        """
        x = np.zeros_like(g)
        r = -g.copy()
        z = r / hdiag
        p = z.copy()
        rz = float(np.vdot(r, z))
        gnorm = float(np.linalg.norm(g))
        hit_boundary = False
        for _ in range(self.max_micro):
            Hp = self._hvp(p, F_mo, C, D)
            pHp = float(np.vdot(p, Hp))
            if pHp <= 1e-12 * float(np.vdot(p, p)):
                # near-zero/negative curvature.  With a partial Newton
                # step already in hand, keep it — the classic
                # follow-p-to-the-boundary exit hurls an
                # almost-converged state along a flat mode (degenerate
                # frontier pairs) and costs macro-iterations to
                # recover.  From x = 0 the preconditioned gradient is
                # the safe direction: small near convergence, and far
                # out it reaches the boundary anyway (saddle escape).
                if float(np.vdot(x, x)) > 0.0:
                    break
                pn = float(np.linalg.norm(p))
                if pn > radius:
                    x = (radius / pn) * p
                    hit_boundary = True
                else:
                    x = p.copy()
                break
            alpha = rz / pHp
            x_new = x + alpha * p
            if float(np.linalg.norm(x_new)) >= radius:
                x = self._to_boundary(x, p, radius)
                hit_boundary = True
                break
            x = x_new
            r = r - alpha * Hp
            if float(np.linalg.norm(r)) <= rtol * gnorm:
                break
            z = r / hdiag
            rz_new = float(np.vdot(r, z))
            p = z + (rz_new / rz) * p
            rz = rz_new
        pred = 0.5 * (float(np.vdot(g, x)) - float(np.vdot(x, r)))
        return x, pred, hit_boundary

    @staticmethod
    def _to_boundary(x: np.ndarray, p: np.ndarray,
                     radius: float) -> np.ndarray:
        """The point ``x + tau*p`` (tau > 0) on the trust boundary."""
        xx = float(np.vdot(x, x))
        xp = float(np.vdot(x, p))
        pp = float(np.vdot(p, p))
        if pp <= 0.0:
            return x
        disc = max(xp * xp + pp * (radius * radius - xx), 0.0)
        tau = (-xp + np.sqrt(disc)) / pp
        return x + tau * p

    # --- the macro loop -------------------------------------------------------

    def solve(self, C: np.ndarray, max_macro: int, history: list[float],
              state: tuple | None = None) -> dict:
        """Newton-iterate from orbitals ``C`` until the commutator norm
        drops below ``conv_tol`` (or ``max_macro`` is exhausted).

        ``state`` optionally carries an already-built
        ``(F, energy, exchange_energy)`` for the density ``C`` implies
        (the rough phase just paid for that build — no reason to spend
        another Fock build re-deriving it).

        Appends the energy of every macro-iteration to ``history`` and
        returns the final state as a dict: ``converged``, ``niter``
        (macro count this solve), ``C``, ``D``, ``F``, ``energy``,
        ``exchange_energy``.
        """
        no = self.nocc
        tr = self.trace
        D = 2.0 * C[:, :no] @ C[:, :no].T
        if state is not None:
            F, energy, ex_energy = state
        else:
            with tr.span("soscf.fock", cat="soscf"):
                F, energy, ex_energy = self.fock_energy(D)
            self.fock_builds += 1
            tr.count("scf.fock_builds", 1)
        converged = False
        it = 0
        for it in range(1, max_macro + 1):
            with tr.span("soscf.macro", cat="soscf", it=it):
                self.macro_iters += 1
                history.append(energy)
                err_norm = self._commutator_norm(F, D)
                if err_norm < self.conv_tol:
                    converged = True
                    break
                F_mo = C.T @ F @ C
                g = 4.0 * F_mo[no:, :no]
                fd = np.diag(F_mo)
                hdiag = np.maximum(
                    4.0 * (fd[no:, None] - fd[None, :no]), HDIAG_MIN)
                # inexact-Newton forcing: solve loosely far out, tightly
                # near the solution (keeps micro builds proportionate)
                rtol = min(0.1, err_norm)
                # near-flat Hessian modes (degenerate frontier pairs,
                # e.g. the Li2O2 pi* manifold) make Steihaug's
                # negative-curvature exit jump to the full boundary from
                # an almost-converged point; capping the radius at the
                # steepest-descent scale bounds that excursion while
                # leaving the far-from-convergence globalization alone
                cap = max(10.0 * float(np.linalg.norm(g)), TRUST_MIN)
                accepted = False
                trial = None
                for _ in range(3):
                    radius = min(self.trust_radius, cap)
                    with tr.span("soscf.micro", cat="soscf"):
                        x, pred, boundary = self._solve_step(
                            g, F_mo, C, D, hdiag, radius, rtol)
                    C_t = self._rotate(C, x)
                    D_t = 2.0 * C_t[:, :no] @ C_t[:, :no].T
                    with tr.span("soscf.fock", cat="soscf"):
                        F_t, E_t, ex_t = self.fock_energy(D_t)
                    self.fock_builds += 1
                    tr.count("scf.fock_builds", 1)
                    trial = (C_t, D_t, F_t, E_t, ex_t)
                    dE = E_t - energy
                    ok = dE <= 1e-11
                    if ok and dE > -1e-10:
                        # iso-energetic step: motion along a flat mode
                        # (degenerate frontier manifold) gains nothing
                        # and can drift the commutator back up — only
                        # accept it if the commutator stays in check
                        ok = self._commutator_norm(F_t, D_t) \
                            <= 3.0 * err_norm
                    if ok:
                        rho = dE / pred if pred < 0.0 else 1.0
                        if rho < 0.25:
                            self.trust_radius = max(
                                0.5 * self.trust_radius, TRUST_MIN)
                        elif rho > 0.75 and boundary:
                            self.trust_radius = min(
                                2.0 * self.trust_radius, TRUST_MAX)
                        accepted = True
                        break
                    # energy rose (or a flat-mode drift): the quadratic
                    # model overreached — shrink the region and re-solve
                    # the same equations
                    self.rejected_steps += 1
                    tr.count("scf.rejected_steps", 1)
                    self.trust_radius = max(
                        0.25 * self.trust_radius, TRUST_MIN)
                # at the minimum radius every step is tiny; taking the
                # last trial bounds the worst case (a stray ~1e-11
                # energy-noise rejection) instead of spinning in place
                C, D, F, energy, ex_energy = trial
        return {
            "converged": converged, "niter": it, "C": C, "D": D, "F": F,
            "energy": energy, "exchange_energy": ex_energy,
        }
