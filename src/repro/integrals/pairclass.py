"""Shell pairs in classes: the one pair table of a geometry, read by
every integral walk one pair class at a time.

A *pair class* holds every unique shell pair ``(i, j)``, ``i <= j``,
whose shells share one signature ``(l_i, nprim_i, l_j, nprim_j)``: one
side of a *block*, the unique quartets of one (bra pair class, ket pair
class) pair, which fix every array shape of the class ERI kernel.
Every array of a class has one leading axis over its pairs, and
:func:`~repro.integrals.mcmurchie.hermite_e` is elementwise, so the
Hermite expansion and every integral built on it take a handful of
numpy calls per class instead of per pair:

* one E table per Cartesian dimension, its bra ladder one step and its
  ket ladder two steps past ``(l_i, l_j)``.  The raised shell of a
  derivative and the ``j + 2`` term of the kinetic operator read the
  same table, and its ``(l_i, l_j)`` corner holds the bits of the
  per-pair recursion of the per-quartet reference
  (:mod:`repro.basis.shellpair`);
* the Hermite lambdas (:meth:`PairClass.lam`) that the class ERI kernel
  (:func:`~repro.integrals.batch._eri_class_batch`) gathers for the
  in-core tensor walk, the batched direct walk, the Schwarz diagonals
  and the RI integrals;
* S, T and the dipole operators from the 1-D overlaps and first
  moments, V from one Hermite Coulomb table over (pairs x primitives x
  nuclei) per chunk of the class;
* bra derivatives from the raise/lower identity of a primitive
  Cartesian Gaussian applied to the 1-D tables,
  ``d/dA_x G_i(a, A) = 2a G_{i+1} - i G_{i-1}``, and the Hellmann-Feynman
  term of V from ``dR_tuv/dC_x = -R_{t+1,u,v}``.

The auxiliary side of density fitting is a pair table too: each
auxiliary shell ``|P)`` paired with a unit s *ghost* of exponent 0 on
its own centre (``ghost=True``), which makes ``(P|Q)`` and ``(uv|P)``
class batches of the same kernel.

:func:`pair_classes` keeps one table per basis object, built at first
use: the SCF's S, T and V, its ERI walks, its Schwarz bounds and the
analytic gradient of the same geometry read the same E tables and
lambdas.  The Hermite Coulomb chunks stay under
:data:`~repro.integrals.batch.WALK_SCRATCH` doubles.

Every four-index walk (the in-core tensor, the direct J/K ranks, the
analytic gradient) reads the same blocks (:func:`_blocks`) in chunks of
``(bra rows, unique mask, Q_ij Q_kl)`` (:func:`_grid`), applies its own
screen per chunk and hands the kept rows to the class kernel as they
are; :meth:`PairClasses.locate` serves a bare quartet list alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..basis.shell import cartesian_components
from ..basis.shellpair import hermite_indices
from .batch import WALK_SCRATCH, _stage_chunk
from .mcmurchie import hermite_e, hermite_r_tri

__all__ = ["PairClass", "PairClasses", "pair_classes"]

_SQRT_PI = np.sqrt(np.pi)

# Ceiling, in elements, of a block walk's transient screen arrays: one
# chunk of bra pairs against a whole ket pair class (512 kB of doubles).
_SCREEN_SCRATCH = 1 << 16


def _raise_lower(tab: np.ndarray, expo: np.ndarray, axis: int
                 ) -> np.ndarray:
    """The raise/lower identity along ``axis`` of a 1-D table ``tab``
    ``(M, ..., n)`` whose ``axis`` is the differentiated shell's
    Cartesian power ``k``: ``2 expo tab[k + 1] - k tab[k - 1]`` for every
    ``k`` but the last, ``expo`` ``(M, n)`` that shell's exponents."""
    k = np.arange(tab.shape[axis] - 1)
    e = expo.reshape((len(expo),) + (1,) * (tab.ndim - 2) + (-1,))
    return (2.0 * e * np.take(tab, k + 1, axis=axis)
            - k.reshape((-1,) + (1,) * (tab.ndim - axis - 1))
            * np.take(tab, np.maximum(k - 1, 0), axis=axis))


class PairClass:
    """The unique shell pairs ``ij`` ``(M, 2)`` of one signature, stacked.

    ``a``/``b``/``p`` ``(M, n)`` are the primitive-pair exponents (bra
    major: ``n = na * nb``, bra primitive outer), ``P`` ``(M, n, 3)``
    the product centres, ``W`` ``(M, ncA, ncB, n)`` the combined
    contraction weights and ``E[d]`` ``(M, la + 2, lb + 3, la + lb + 4,
    n)`` the Hermite coefficients of dimension ``d``; ``sig`` is the
    class signature ``(la, na, lb, nb)``.

    ``ghost=True`` pairs each bra shell ``ij[:, 0]`` with a unit s
    function of exponent 0 on its own centre (``ij[:, 1]`` is not read):
    the auxiliary shell ``|P)`` of density fitting as a pair.  The
    product rule with ``b = 0`` leaves ``p = a`` and ``P = A`` exactly
    (``P`` is the bra centre itself, not the rounded weighted mean), an
    overlap prefactor of 1 and the bra's own contraction weights.
    """

    def __init__(self, shells, ij: np.ndarray, ghost: bool = False):
        self.ij = ij
        bra = [shells[i] for i in ij[:, 0]]
        A = np.array([sh.center for sh in bra])
        ea = np.array([sh.exps for sh in bra])
        ca = np.array([sh.norm_coefs for sh in bra])
        if ghost:
            B, eb, cb = A, np.zeros((len(ij), 1)), np.ones((len(ij), 1, 1))
            self.lb = 0
        else:
            ket = [shells[j] for j in ij[:, 1]]
            B = np.array([sh.center for sh in ket])
            eb = np.array([sh.exps for sh in ket])
            cb = np.array([sh.norm_coefs for sh in ket])
            self.lb = ket[0].l
        self.la = bra[0].l
        na, nb = ea.shape[1], eb.shape[1]
        self.sig = (self.la, na, self.lb, nb)
        self.a = np.repeat(ea, nb, axis=1)
        self.b = np.tile(eb, (1, na))
        self.p = self.a + self.b
        self.P = np.repeat(A[:, None, :], na, axis=1) if ghost else (
            self.a[..., None] * A[:, None, :]
            + self.b[..., None] * B[:, None, :]) / self.p[..., None]
        self.W = (ca[:, :, None, :, None] * cb[:, None, :, None, :]).reshape(
            len(ij), ca.shape[1], cb.shape[1], na * nb)
        m, n = self.p.shape
        self.E = [np.ascontiguousarray(np.moveaxis(hermite_e(
            self.la + 1, self.lb + 2, self.a.reshape(-1), self.b.reshape(-1),
            np.repeat(A[:, d] - B[:, d], n)).reshape(
                self.la + 2, self.lb + 3, -1, m, n), 3, 0))
            for d in range(3)]
        self.comps = (np.array(cartesian_components(self.la)),
                      np.array(cartesian_components(self.lb)))
        self._lam = None

    def __len__(self) -> int:
        return len(self.ij)

    @property
    def shape(self) -> tuple[int, int]:
        """``(ncA, ncB)``: Cartesian components of the two shells."""
        return self.W.shape[1:3]

    # --- Hermite lambdas ------------------------------------------------------

    def _components(self, tabs, idx):
        """Per dimension, ``tabs[d]`` ``(M, I, J, T, n)`` gathered at the
        pair's component indices and Hermite orders ``idx[:, d]``:
        ``(M, ncA, ncB, len(idx), n)``."""
        ca, cb = self.comps
        return [tabs[d][:, ca[:, d, None, None], cb[None, :, d, None],
                        idx[None, None, :, d]] for d in range(3)]

    def lam(self) -> np.ndarray:
        """Hermite lambda of every pair, ``(M, ncA, ncB, nherm, n)`` over
        :func:`~repro.basis.shellpair.hermite_indices` of ``la + lb``,
        built once: the bits of the per-quartet reference's per-pair
        lambdas (:mod:`repro.basis.shellpair`), the same products in the
        same order."""
        if self._lam is None:
            gx, gy, gz = self._components(
                self.E, hermite_indices(self.la + self.lb))
            self._lam = self.W[:, :, :, None, :] * gx * gy * gz
        return self._lam

    def dlam(self, side: int) -> np.ndarray:
        """Hermite lambda of ``d(ij)/dA`` (``side`` 0) or ``d(ij)/dB``
        (``side`` 1), ``(M, 3, ncA, ncB, nherm, n)`` over the Hermite
        orders of ``la + lb + 1``: the 1-D table of the differentiated
        direction raised and lowered on that side's index."""
        expo = (self.a, self.b)[side]
        idx = hermite_indices(self.la + self.lb + 1)
        g = self._components(self.E, idx)
        dg = self._components(
            [_raise_lower(e, expo, 1 + side) for e in self.E], idx)
        w = self.W[:, :, :, None, :]
        return np.stack([w * dg[0] * g[1] * g[2], w * g[0] * dg[1] * g[2],
                         w * g[0] * g[1] * dg[2]], axis=1)

    # --- overlap and kinetic energy ------------------------------------------

    def _one_dim(self):
        """Per dimension, the 1-D overlaps ``s[m, i, j, n]`` (``i <=
        la + 1``, ``j <= lb + 2``), the kinetic terms ``t`` (``j <= lb``)
        and the bra derivatives ``ds``/``dt`` (``i <= la``)."""
        f = (_SQRT_PI / np.sqrt(self.p))[:, None, None, :]
        b = self.b[:, None, None, :]
        j = np.arange(self.lb + 1)
        out = []
        for e in self.E:
            s = e[:, :, :, 0] * f
            t = (b * (2 * j[:, None] + 1) * s[:, :, j]
                 - 2.0 * b * b * s[:, :, j + 2]
                 - 0.5 * (j * (j - 1))[:, None] * s[:, :, np.maximum(j - 2,
                                                                     0)])
            out.append((s, t, _raise_lower(s, self.a, 1),
                        _raise_lower(t, self.a, 1)))
        return out

    def _gather(self, tab, d):
        ca, cb = self.comps
        return tab[:, ca[:, d, None], cb[None, :, d]]

    def overlap(self) -> np.ndarray:
        """Overlap blocks ``(M, ncA, ncB)``."""
        s = [self._gather(t[0], d) for d, t in enumerate(self._one_dim())]
        return np.einsum("mxyn,mxyn->mxy", self.W, s[0] * s[1] * s[2])

    def kinetic(self) -> np.ndarray:
        """Kinetic-energy blocks ``(M, ncA, ncB)`` from the shifted
        overlaps ``T_ij = b(2j+1) S_ij - 2b^2 S_{i,j+2} - j(j-1)/2
        S_{i,j-2}`` of each dimension."""
        (sx, tx), (sy, ty), (sz, tz) = (
            (self._gather(t[0], d), self._gather(t[1], d))
            for d, t in enumerate(self._one_dim()))
        return np.einsum("mxyn,mxyn->mxy", self.W,
                         tx * sy * sz + sx * ty * sz + sx * sy * tz)

    def overlap_kinetic_derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """``(dS/dA, dT/dA)``, each ``(M, 3, ncA, ncB)`` (``d/dB`` is the
        negative, by translational invariance)."""
        tabs = [tuple(self._gather(t, d) for t in tab)
                for d, tab in enumerate(self._one_dim())]
        dS, dT = [], []
        for d in range(3):
            (s0, t0, ds0, dt0), (s1, t1, _, _), (s2, t2, _, _) = (
                tabs[(d + k) % 3] for k in range(3))
            dS.append(ds0 * s1 * s2)
            dT.append(dt0 * s1 * s2 + ds0 * (t1 * s2 + s1 * t2))
        return (np.einsum("mxyn,dmxyn->mdxy", self.W, np.stack(dS)),
                np.einsum("mxyn,dmxyn->mdxy", self.W, np.stack(dT)))

    def dipole(self, origin: np.ndarray) -> np.ndarray:
        """Dipole blocks ``(M, 3, ncA, ncB)``: the x, y, z position
        operators about ``origin``, from the 1-D first moments
        ``(E_1 + (P_d - O_d) E_0) sqrt(pi/p)`` (a Hermite Gaussian of
        order above 1 has no first moment)."""
        f = (_SQRT_PI / np.sqrt(self.p))[:, None, None, :]
        s, mom = [], []
        for d, e in enumerate(self.E):
            po = (self.P[:, :, d] - origin[d])[:, None, None, :]
            s.append(self._gather(e[:, :, :, 0] * f, d))
            mom.append(self._gather((e[:, :, :, 1] + po * e[:, :, :, 0]) * f,
                                    d))
        return np.einsum("mxyn,dmxyn->mdxy", self.W, np.stack(
            [mom[0] * s[1] * s[2], s[0] * mom[1] * s[2],
             s[0] * s[1] * mom[2]]))

    # --- nuclear attraction ---------------------------------------------------

    def _coulomb(self, L: int, centers: np.ndarray):
        """Chunks of the class and, per chunk ``s``, the Hermite Coulomb
        table of order ``L`` over (pairs x primitives x nuclei) and the
        prefactor ``2 pi / p`` ``(m, n)``, each chunk's table under
        :data:`~repro.integrals.batch.WALK_SCRATCH` doubles."""
        m, n = self.p.shape
        nc = len(centers)
        step = _stage_chunk(L, n * nc, WALK_SCRATCH)
        for lo in range(0, m, step):
            s = slice(lo, min(lo + step, m))
            p = self.p[s]
            PC = self.P[s, :, None, :] - centers[None, None, :, :]
            R = hermite_r_tri(L, np.repeat(p.reshape(-1), nc),
                              PC.reshape(-1, 3))
            yield s, R.reshape(R.shape[:3] + p.shape + (nc,)), \
                2.0 * np.pi / p

    def nuclear(self, charges: np.ndarray, centers: np.ndarray
                ) -> np.ndarray:
        """Nuclear-attraction blocks ``(M, ncA, ncB)`` of point charges
        ``charges`` ``(nc,)`` at ``centers`` ``(nc, 3)`` (the integral
        carries the electron-nucleus minus sign)."""
        L = self.la + self.lb
        idx = hermite_indices(L)
        lam = self.lam()
        out = np.empty((len(self),) + self.shape)
        for s, R, pref in self._coulomb(L, centers):
            Rz = R[idx[:, 0], idx[:, 1], idx[:, 2]] @ charges  # (h, m, n)
            out[s] = -np.einsum("mxyhn,hmn->mxy", lam[s],
                                Rz * pref[None])
        return out

    def nuclear_derivatives(self, charges: np.ndarray, centers: np.ndarray,
                            dlam: np.ndarray | None = None
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Nuclear-attraction derivatives ``(dA, dC)``: ``dA`` ``(M, 3,
        ncA, ncB)`` with respect to the bra centre (the basis-function
        term; the ket's is ``-(dA + sum_C dC)`` by translational
        invariance) and ``dC`` ``(M, nc, 3, ncA, ncB)`` with respect to
        each charge's position (the Hellmann-Feynman term).  ``dlam`` is
        :meth:`dlam` ``(0)`` if the caller holds it."""
        L = self.la + self.lb
        idx, up = hermite_indices(L), hermite_indices(L + 1)
        lam = self.lam()
        if dlam is None:
            dlam = self.dlam(0)
        nc = len(charges)
        dA = np.empty((len(self), 3) + self.shape)
        dC = np.empty((len(self), nc, 3) + self.shape)
        for s, R, pref in self._coulomb(L + 1, centers):
            zpref = pref[:, :, None] * charges             # (m, n, nc)
            Rz = R[up[:, 0], up[:, 1], up[:, 2]] @ charges
            dA[s] = -np.einsum("mdxyhn,hmn->mdxy", dlam[s], Rz * pref[None])
            for d, shift in enumerate(np.eye(3, dtype=np.int64)):
                sh = idx + shift
                dC[s, :, d] = np.einsum(
                    "mxyhn,hmnc->mcxy", lam[s],
                    R[sh[:, 0], sh[:, 1], sh[:, 2]] * zpref[None])
        return dA, dC


class PairClasses:
    """Every unique shell pair ``(i, j)``, ``i <= j``, of a shell list —
    or, with ``ghost=True``, every shell ``i`` paired with its ghost
    (stored as ``(i, i)``) — grouped into :class:`PairClass` objects
    (first-seen order of the signature, pairs in ``(i, j)`` order within
    a class).  ``cid[i, j]``/``row[i, j]`` locate a pair (``-1`` where
    there is none); ``offsets`` are the shells' first AO indices."""

    def __init__(self, shells, ghost: bool = False):
        nsh = len(shells)
        i, j = (np.arange(nsh),) * 2 if ghost else np.triu_indices(nsh)
        kind = np.array([(sh.l, sh.nprim) for sh in shells])
        sig = kind[i] if ghost else np.column_stack([kind[i], kind[j]])
        _, first, inv = np.unique(sig, axis=0, return_index=True,
                                  return_inverse=True)
        inv = inv.reshape(-1)
        self.cid = np.full((nsh, nsh), -1, dtype=np.int64)
        self.row = np.full((nsh, nsh), -1, dtype=np.int64)
        self.classes: list[PairClass] = []
        for c, g in enumerate(np.argsort(first, kind="stable")):
            members = np.flatnonzero(inv == g)
            ij = np.column_stack([i[members], j[members]])
            self.cid[ij[:, 0], ij[:, 1]] = c
            self.row[ij[:, 0], ij[:, 1]] = np.arange(len(ij))
            self.classes.append(PairClass(shells, ij, ghost))
        nfn = np.array([sh.nfunc for sh in shells], dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(nfn)[:-1]])
        self.nbf = int(nfn.sum())

    def __iter__(self):
        return iter(self.classes)

    def by_signature(self) -> list[PairClass]:
        """The classes in ascending :attr:`PairClass.sig` order."""
        return sorted(self.classes, key=lambda cls: cls.sig)

    def locate(self, i: np.ndarray, j: np.ndarray) -> tuple[int, np.ndarray]:
        """The class of the pairs ``(i[n], j[n])`` (all of one class) and
        each pair's row in it; a pair ``i > j`` is read as ``(j, i)``."""
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        return int(self.cid[lo[0], hi[0]]), self.row[lo, hi]

    def pair_class(self, c: int) -> PairClass:
        """Class ``c``."""
        return self.classes[c]

    def ao(self, cls: PairClass) -> tuple[np.ndarray, np.ndarray]:
        """AO indices of every pair's bra and ket shell, ``(M, ncA)`` and
        ``(M, ncB)``."""
        nA, nB = cls.shape
        return (self.offsets[cls.ij[:, 0], None] + np.arange(nA),
                self.offsets[cls.ij[:, 1], None] + np.arange(nB))

    def matrix(self, blocks) -> np.ndarray:
        """The symmetric ``(nbf, nbf)`` matrix of per-class blocks
        ``(M, ncA, ncB)`` (one per class, in class order) of the pairs
        ``i <= j``; a diagonal pair's block is written as is."""
        out = np.empty((self.nbf, self.nbf))
        for cls, blk in zip(self.classes, blocks):
            r, c = self.ao(cls)
            out[c[:, :, None], r[:, None, :]] = blk.transpose(0, 2, 1)
            out[r[:, :, None], c[:, None, :]] = blk
        return out


def pair_classes(basis, ghost: bool = False) -> PairClasses:
    """The :class:`PairClasses` of a basis, built once per basis object
    (a derived ``_*_cache`` table: never pickled, rebuilt on the other
    side).  ``ghost=True`` is the auxiliary side of density fitting:
    every shell of ``basis`` paired with a unit s ghost."""
    key = "_ghostclass_cache" if ghost else "_pairclass_cache"
    cached = basis.__dict__.get(key)
    if cached is None:
        cached = basis.__dict__[key] = PairClasses(basis.shells, ghost)
    return cached


# --- the block walk ----------------------------------------------------------

class _Side(NamedTuple):
    """One pair class as a side of the walk's blocks: its id, its pairs'
    positions in ``(i, j)`` order, the pairs, their Schwarz bounds and
    the Cartesian components ``(ncA, ncB)`` of a pair."""

    cid: int
    pos: np.ndarray
    ij: np.ndarray
    q: np.ndarray
    shape: tuple


def _pair_walk(engine) -> list[_Side]:
    """The pair classes of ``engine``'s basis in signature order, with
    the Schwarz bounds of its :meth:`~repro.integrals.eri.ERIEngine.
    pair_bounds`: every (bra, ket) pair of them is one block of the
    walk.  Built once per basis object, like its pair table."""
    basis = engine.basis
    sides = basis.__dict__.get("_walk_cache")
    if sides is None:
        classes = pair_classes(basis)
        bounds = engine.pair_bounds()
        nsh = basis.nshell
        pos = np.zeros((nsh, nsh), dtype=np.int64)
        pos[np.triu_indices(nsh)] = np.arange(nsh * (nsh + 1) // 2)
        sides = basis.__dict__["_walk_cache"] = []
        for cls in classes.by_signature():
            cid = int(classes.cid[cls.ij[0, 0], cls.ij[0, 1]])
            sides.append(_Side(cid, pos[cls.ij[:, 0], cls.ij[:, 1]],
                               cls.ij, bounds[cid], cls.shape))
    return sides


def _blocks(walk: list[_Side]):
    """The (bra, ket) blocks of the walk, bra-major in walk order, less
    those without a unique quartet (every ket pair precedes every bra)."""
    return ((bra, ket) for bra in walk for ket in walk
            if bra.pos[0] <= ket.pos[-1])


def _grid(bra: _Side, ket: _Side, rows: np.ndarray | None = None):
    """``Q_ij Q_kl`` of the (``bra``, ``ket``) block in chunks of the bra
    rows ``rows`` (a bool per bra pair; all without) under
    :data:`_SCREEN_SCRATCH` elements: ``(r, U, G)`` per chunk, ``r`` its
    rows, ``G`` ``(len(r), nket)`` and ``U`` where the ket pair does not
    precede the bra (a unique quartet)."""
    r = np.arange(len(bra.pos)) if rows is None else np.flatnonzero(rows)
    step = max(1, _SCREEN_SCRATCH // len(ket.pos))
    for s in range(0, len(r), step):
        rs = r[s:s + step]
        yield rs, bra.pos[rs, None] <= ket.pos, bra.q[rs, None] * ket.q
