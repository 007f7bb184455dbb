"""The per-iteration contractions of the fitted SCF as they stood before
they became BLAS-3 calls.

``coulomb`` (two GEMVs over the flattened ``B``), ``exchange`` (the
half-transform ``Y = B V``, its weighted copy and an ``einsum`` over
both, symmetrised at the end) and ``xc_potential`` (three ``(npts,
nbf)`` GEMMs and a ``0.5 (V + V^T)`` pass) are kept verbatim as the
oracle for :meth:`repro.scf.RIJKBuilder.build` and
:meth:`repro.scf.dft.XCIntegrator.exc_and_potential`;
``tests/scf/test_fitted_contractions.py`` holds the new routes to them.
"""

from __future__ import annotations

import numpy as np

from repro.scf.ri_jk import DENSITY_EIG_CUT


def coulomb(B: np.ndarray, D: np.ndarray) -> np.ndarray:
    """``J_uv = sum_K B[K,uv] (B[K,:] . D)``."""
    nbf = B.shape[1]
    Bf = B.reshape(len(B), nbf * nbf)
    gamma = Bf @ np.asarray(D, dtype=np.float64).ravel()
    return (gamma @ Bf).reshape(nbf, nbf)


def exchange(B: np.ndarray, D: np.ndarray) -> np.ndarray:
    """``K = sum_i w_i Y_i Y_i^T`` with ``Y[K,u,i] = B[K,u,v] V_vi``."""
    nbf = B.shape[1]
    w, V = np.linalg.eigh(np.asarray(D, dtype=np.float64))
    wmax = float(np.abs(w).max()) if w.size else 0.0
    keep = np.abs(w) > DENSITY_EIG_CUT * max(wmax, 1e-300)
    if not keep.any():
        return np.zeros((nbf, nbf))
    Vk = V[:, keep]
    Y = B @ Vk
    Yw = Y * w[keep][None, None, :]
    K = np.einsum("Pui,Pvi->uv", Yw, Y, optimize=True)
    return 0.5 * (K + K.T)


def xc_potential(xc, D: np.ndarray) -> tuple[float, np.ndarray]:
    """``(E_xc, Vxc)`` of an :class:`~repro.scf.dft.XCIntegrator`."""
    w = xc.grid.weights
    ao = xc.ao
    if xc.ao_grad is None:
        rho, _ = xc.density_on_grid(D)
        exc, vrho, _ = xc.functional.evaluate(rho, np.zeros_like(rho))
        e = float(w @ exc)
        wv = w * vrho
        V = (ao * wv[:, None]).T @ ao
        return e, 0.5 * (V + V.T)
    rho, (sigma, grad_rho) = xc.density_on_grid(D)
    exc, vrho, vsigma = xc.functional.evaluate(rho, sigma)
    e = float(w @ exc)
    wv = w * vrho
    V = (ao * wv[:, None]).T @ ao
    wg = 2.0 * w * vsigma
    gvec = grad_rho * wg[None, :]
    half = np.einsum("dg,dgp->gp", gvec, xc.ao_grad)
    V += half.T @ ao + ao.T @ half
    return e, 0.5 * (V + V.T)
