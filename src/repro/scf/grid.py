"""Becke molecular integration grids (radial x Lebedev angular).

Used by the semilocal part of the PBE/PBE0 functionals.  The paper's
code evaluates the GGA pieces on the plane-wave grid; any quadrature
with sufficient precision preserves its behaviour, so we use the
standard Gauss-Chebyshev radial times small Lebedev angular product
grids with Becke fuzzy-cell partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..basis.basisset import BasisSet
from ..basis.shell import cartesian_components
from ..chem.elements import covalent_radius_bohr
from ..chem.molecule import Molecule

__all__ = ["lebedev_points", "radial_points", "becke_cell", "becke_partition",
           "MolecularGrid", "eval_aos"]


# --------------------------------------------------------------------------
# Lebedev angular quadrature (orders 6, 14, 26, 38, 50)
# --------------------------------------------------------------------------

def _oct_vertices() -> np.ndarray:
    """The 6 octahedron vertices (+-1, 0, 0) etc."""
    pts = []
    for d in range(3):
        for s in (1.0, -1.0):
            p = [0.0, 0.0, 0.0]
            p[d] = s
            pts.append(p)
    return np.array(pts)


def _oct_edges() -> np.ndarray:
    """The 12 edge midpoints (+-1/sqrt2, +-1/sqrt2, 0) etc."""
    a = 1.0 / np.sqrt(2.0)
    pts = []
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        for si in (1.0, -1.0):
            for sj in (1.0, -1.0):
                p = [0.0, 0.0, 0.0]
                p[i], p[j] = si * a, sj * a
                pts.append(p)
    return np.array(pts)


def _cube_vertices() -> np.ndarray:
    """The 8 cube vertices (+-1, +-1, +-1)/sqrt3."""
    a = 1.0 / np.sqrt(3.0)
    pts = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                pts.append([sx * a, sy * a, sz * a])
    return np.array(pts)


def _pq0(p: float) -> np.ndarray:
    """24 points of class (p, q, 0) with q = sqrt(1 - p^2)."""
    q = np.sqrt(1.0 - p * p)
    pts = []
    for (u, v) in ((p, q), (q, p)):
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    x = [0.0, 0.0, 0.0]
                    x[i], x[j] = si * u, sj * v
                    pts.append(x)
    return np.array(pts)


def _llm(l: float) -> np.ndarray:
    """24 points of class (l, l, m) with m = sqrt(1 - 2 l^2)."""
    m = np.sqrt(1.0 - 2.0 * l * l)
    pts = []
    for pos in range(3):  # which coordinate carries m
        for sm in (1.0, -1.0):
            for s1 in (1.0, -1.0):
                for s2 in (1.0, -1.0):
                    vals = [s1 * l, s2 * l]
                    p = [0.0, 0.0, 0.0]
                    k = 0
                    for d in range(3):
                        if d == pos:
                            p[d] = sm * m
                        else:
                            p[d] = vals[k]
                            k += 1
                    pts.append(p)
    return np.array(pts)


_LEBEDEV = {
    6: [(_oct_vertices, (), 1.0 / 6.0)],
    14: [(_oct_vertices, (), 1.0 / 15.0), (_cube_vertices, (), 3.0 / 40.0)],
    26: [(_oct_vertices, (), 1.0 / 21.0), (_oct_edges, (), 4.0 / 105.0),
         (_cube_vertices, (), 9.0 / 280.0)],
    38: [(_oct_vertices, (), 1.0 / 105.0), (_cube_vertices, (), 9.0 / 280.0),
         (_pq0, (0.4597008433809831,), 1.0 / 35.0)],
    50: [(_oct_vertices, (), 0.0126984126984127),
         (_oct_edges, (), 0.02257495590828924),
         (_cube_vertices, (), 0.02109375),
         (_llm, (0.30151134457776357,), 0.02017333553791887)],
}


def lebedev_points(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-sphere quadrature of the requested size (6/14/26/38/50 points).

    Returns ``(points, weights)`` with weights summing to 1 (the 4*pi
    factor is folded into the radial weights by the caller).
    """
    try:
        classes = _LEBEDEV[order]
    except KeyError:
        raise ValueError(f"unsupported Lebedev order {order}; "
                         f"available: {sorted(_LEBEDEV)}") from None
    pts, wts = [], []
    for gen, args, w in classes:
        p = gen(*args)
        pts.append(p)
        wts.append(np.full(len(p), w))
    return np.vstack(pts), np.concatenate(wts)


def radial_points(n: int, rm: float) -> tuple[np.ndarray, np.ndarray]:
    """Becke radial quadrature: Gauss-Chebyshev (2nd kind) mapped by
    r = rm (1 + x) / (1 - x).

    Returns ``(r, w)`` where ``w`` already contains the r^2 Jacobian, so
    integral f = sum_i w_i f(r_i) approximates int_0^inf f(r) r^2 dr.
    """
    i = np.arange(1, n + 1)
    x = np.cos(i * np.pi / (n + 1.0))
    wcheb = np.pi / (n + 1.0) * np.sin(i * np.pi / (n + 1.0)) ** 2
    r = rm * (1.0 + x) / (1.0 - x)
    drdx = 2.0 * rm / (1.0 - x) ** 2
    # undo the Chebyshev weight function sqrt(1 - x^2)
    w = wcheb / np.sqrt(1.0 - x * x) * drdx * r * r
    return r, w


def becke_cell(mu: np.ndarray, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Becke's cell function ``s(mu) = (1 - f_k(mu)) / 2`` and its
    derivative ``ds/dmu``, where ``f_k`` is ``iters`` steps of
    ``f -> f (3 - f^2) / 2`` from ``f = mu``.

    ``f`` is odd, so ``s(-mu) = 1 - s(mu)``; the partition uses that to
    visit each atom pair once.
    """
    f, df = mu, np.ones_like(mu)
    for _ in range(iters):
        f2 = f * f
        df = df * 1.5 * (1.0 - f2)
        f = f * (1.5 - 0.5 * f2)
    return 0.5 * (1.0 - f), -0.5 * df


def becke_partition(mol: Molecule, points: np.ndarray,
                    iters: int) -> np.ndarray:
    """Becke fuzzy-cell weights ``P_A(r)`` of every atom at every point,
    shape ``(npts, natom)``; every row sums to one.

    One pass over all points: each unordered atom pair ``(A, B)`` is
    visited once, its cell factor ``s(mu_AB)`` multiplied into cell
    ``A`` and ``1 - s(mu_AB) = s(mu_BA)`` into cell ``B``, partners in
    ascending order for every cell.
    """
    n = mol.natom
    if n == 1:
        return np.ones((len(points), 1))
    d = np.empty((len(points), n))
    for a in range(n):
        d[:, a] = np.linalg.norm(points - mol.coords[a], axis=1)
    R = mol.distance_matrix()
    cell = np.ones((len(points), n))
    for a in range(n):
        for b in range(a + 1, n):
            s, _ = becke_cell((d[:, a] - d[:, b]) / R[a, b], iters)
            cell[:, a] *= s
            cell[:, b] *= 1.0 - s
    total = cell.sum(axis=1)
    total[total == 0.0] = 1.0
    cell /= total[:, None]
    return cell


@dataclass
class MolecularGrid:
    """Becke-partitioned molecular quadrature grid.

    Attributes
    ----------
    points:
        Grid points, shape ``(npts, 3)`` Bohr.
    weights:
        Quadrature weights including the Becke partition of unity.
    owner:
        Index of the atom each point was generated around (and moves
        with when that nucleus is displaced).
    quadrature:
        The radial x angular weights before the Becke partition.
    becke_iters:
        Smoothing iterations of the partition the weights were built
        with.  These three are what :meth:`weight_gradient` needs; a grid
        assembled by hand may leave them out.
    """

    points: np.ndarray
    weights: np.ndarray
    owner: np.ndarray | None = None
    quadrature: np.ndarray | None = None
    becke_iters: int = 3

    @classmethod
    def build(cls, mol: Molecule, n_radial: int = 30, n_angular: int = 26,
              becke_iters: int = 3) -> "MolecularGrid":
        """Assemble atom-centered product grids with Becke weights."""
        ang_pts, ang_wts = lebedev_points(n_angular)
        all_pts, all_quad = [], []
        for ia in range(mol.natom):
            rm = max(0.5 * covalent_radius_bohr(int(mol.numbers[ia])), 0.4)
            rad, wrad = radial_points(n_radial, rm)
            pts = (rad[:, None, None] * ang_pts[None, :, :]).reshape(-1, 3)
            all_pts.append(pts + mol.coords[ia])
            all_quad.append((wrad[:, None] * ang_wts[None, :]).reshape(-1)
                            * 4.0 * np.pi)
        points, quad = np.vstack(all_pts), np.concatenate(all_quad)
        owner = np.repeat(np.arange(mol.natom), n_radial * len(ang_pts))
        P = becke_partition(mol, points, becke_iters)
        return cls(points, quad * P[np.arange(len(points)), owner],
                   owner=owner, quadrature=quad, becke_iters=becke_iters)

    def weight_gradient(self, mol: Molecule, sel) -> np.ndarray:
        """``d weights[sel] / d R_C``, shape ``(len(sel), natom, 3)``
        (``sel``: a slice or index array into the grid).

        A point rides on its own nucleus, so its weight depends on the
        nuclear positions only through differences: the derivative with
        respect to the owner is minus the sum of the fixed-point
        derivatives with respect to every other nucleus.  Memory: a
        handful of ``(len(sel), natom, natom, 3)`` temporaries — callers
        chunk ``sel``.
        """
        pts, owner = self.points[sel], self.owner[sel]
        n = mol.natom
        if n == 1:
            return np.zeros((len(pts), 1, 3))
        coords = mol.coords
        diff = pts[:, None, :] - coords[None, :, :]
        d = np.linalg.norm(diff, axis=2)                     # r_A
        u = diff / d[:, :, None]                             # (r - R_A) / r_A
        eye = np.eye(n, dtype=bool)
        Rinv = 1.0 / np.where(eye, 1.0, mol.distance_matrix())
        e = (coords[:, None, :] - coords[None, :, :]) * Rinv[:, :, None]
        mu = (d[:, :, None] - d[:, None, :]) * Rinv[None]    # mu_AB
        s, ds = becke_cell(mu, self.becke_iters)
        s = np.where(eye[None], 1.0, s)                      # cell factors
        ds = np.where(eye[None], 0.0, ds)
        # dP_A/dmu_AB = s'(mu_AB) prod_{B' != A, B} s(mu_AB'), without
        # dividing by a factor that may vanish
        pre = np.cumprod(s, axis=2)
        suf = np.cumprod(s[:, :, ::-1], axis=2)[:, :, ::-1]
        excl = np.ones_like(s)
        excl[:, :, 1:] = pre[:, :, :-1]
        excl[:, :, :-1] *= suf[:, :, 1:]
        G = (ds * excl)[..., None]
        # dmu_AB/dR_B = (u_B + mu_AB e_AB) / R_AB,
        # dmu_AB/dR_A = -(u_A + mu_AB e_AB) / R_AB
        mue = mu[..., None] * e[None]
        dP = G * (u[:, None, :, :] + mue) * Rinv[None, :, :, None]
        own = -(G * (u[:, :, None, :] + mue)
                * Rinv[None, :, :, None]).sum(axis=2)
        dP[:, np.arange(n), np.arange(n)] = own              # (g, A, C, 3)
        P = pre[:, :, -1]
        Z = P.sum(axis=1)
        Z = np.where(Z == 0.0, 1.0, Z)
        g = np.arange(len(pts))
        wgt = P[g, owner] / Z
        dw = (dP[g, owner] - wgt[:, None, None] * dP.sum(axis=1)) \
            / Z[:, None, None]
        dw[g, owner] = 0.0
        dw[g, owner] = -dw.sum(axis=1)
        return self.quadrature[sel, None, None] * dw

    @property
    def npts(self) -> int:
        """Number of grid points."""
        return len(self.weights)

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature of a per-point integrand."""
        return float(self.weights @ values)


def _monomial_derivative(r: np.ndarray, powers, wrt) -> np.ndarray:
    """Derivative of ``x^lx y^ly z^lz`` at the rows of ``r`` with respect
    to the coordinates listed in ``wrt`` (e.g. ``(0, 2)`` is
    ``d^2/dx dz``)."""
    out = np.ones(len(r))
    for d, l in enumerate(powers):
        n = wrt.count(d)
        if n > l:
            return np.zeros(len(r))
        for k in range(n):
            out = out * (l - k)
        out = out * r[:, d] ** (l - n)
    return out


def eval_aos(basis: BasisSet, points: np.ndarray, deriv: int = 0):
    """Evaluate all AOs (and optionally derivatives) on grid points.

    Returns ``ao`` of shape ``(npts, nbf)`` when ``deriv == 0``,
    ``(ao, grad)`` with ``grad`` of shape ``(3, npts, nbf)`` when
    ``deriv == 1``, and ``(ao, grad, hess)`` with the symmetric ``hess``
    of shape ``(3, 3, npts, nbf)`` when ``deriv == 2``.
    """
    npts = len(points)
    ao = np.zeros((npts, basis.nbf))
    grad = np.zeros((3, npts, basis.nbf)) if deriv else None
    hess = np.zeros((3, 3, npts, basis.nbf)) if deriv > 1 else None
    for ish, sh in enumerate(basis.shells):
        sl = basis.shell_slice(ish)
        r = points - sh.center[None, :]
        r2 = (r * r).sum(axis=1)
        # radial part per primitive: (npts, nprim)
        exps = np.exp(-np.outer(r2, sh.exps))
        comps = cartesian_components(sh.l)
        for ic, (lx, ly, lz) in enumerate(comps):
            poly = (r[:, 0] ** lx) * (r[:, 1] ** ly) * (r[:, 2] ** lz)
            rad = exps @ sh.norm_coefs[ic]           # (npts,)
            ao[:, sl.start + ic] = poly * rad
            if deriv:
                drad = -2.0 * (exps * sh.exps[None, :]) @ sh.norm_coefs[ic]
                for d, ld in enumerate((lx, ly, lz)):
                    dpoly = np.zeros(npts)
                    if ld > 0:
                        exps_l = [lx, ly, lz]
                        exps_l[d] = ld - 1
                        dpoly = (ld * (r[:, 0] ** exps_l[0])
                                 * (r[:, 1] ** exps_l[1])
                                 * (r[:, 2] ** exps_l[2]))
                    grad[d, :, sl.start + ic] = (dpoly * rad
                                                 + poly * r[:, d] * drad)
            if deriv > 1:
                d2rad = 4.0 * (exps * sh.exps[None, :] ** 2) \
                    @ sh.norm_coefs[ic]
                m1 = [_monomial_derivative(r, (lx, ly, lz), (i,))
                      for i in range(3)]
                for i in range(3):
                    for j in range(i, 3):
                        h = (_monomial_derivative(r, (lx, ly, lz), (i, j))
                             * rad + (m1[i] * r[:, j] + m1[j] * r[:, i])
                             * drad + poly * r[:, i] * r[:, j] * d2rad)
                        if i == j:
                            h = h + poly * drad
                        hess[i, j, :, sl.start + ic] = h
                        hess[j, i, :, sl.start + ic] = h
    if deriv > 1:
        return ao, grad, hess
    if deriv:
        return ao, grad
    return ao
