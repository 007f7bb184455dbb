"""Synthetic condensed-phase HFX workloads.

The paper's scaling runs use liquid boxes whose exact integrals we
could never afford in Python — but the *scheduler* never sees
integrals, only the screened pair list and per-task costs.  This
generator reproduces those statistics exactly:

1. real shell geometry from the box builders (liquid-density water or
   electrolyte lattices with jitter),
2. per-pair Cauchy-Schwarz estimates from an exponential distance model
   *calibrated against the exact bounds* of this very integral engine
   (:func:`calibrate_schwarz_model` fits ln Q = ln q0 - mu r^2 per
   shell-class pair from isolated two-shell scans),
3. exact vectorized counting of surviving quartets and their cost-model
   flops under the unique-quartet convention — the same count and float
   test (``Q_bra * Q_ket >= eps``, one
   :func:`~repro.integrals.schwarz.surviving_partners`) as the real
   :func:`repro.hfx.tasklist.build_tasklist`, just with modeled Q values
   and the separable :func:`~repro.hfx.costmodel.pair_weight` in place
   of the per-class flop table.

The output is a :class:`~repro.hfx.tasklist.TaskList`, indistinguishable
to the partitioner/simulator from a real one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ..basis.basisset import build_basis
from ..basis.shell import Shell
from ..chem import builders
from ..chem.molecule import Molecule
from ..integrals.pairclass import PairClass
from ..integrals.schwarz import schwarz_diagonals, surviving_partners
from .costmodel import pair_weight
from .tasklist import TaskList

__all__ = ["SchwarzModel", "calibrate_schwarz_model", "synthetic_tasklist",
           "water_box_workload", "electrolyte_workload"]


@dataclass(frozen=True)
class _ShellClass:
    """Equivalence class of shells for the Schwarz model."""

    l: int
    nprim: int
    key: tuple  # hashable identity incl. exponents


def _class_of(sh: Shell) -> _ShellClass:
    return _ShellClass(sh.l, sh.nprim,
                       (sh.l, tuple(np.round(sh.exps, 8))))


class SchwarzModel:
    """Fitted exponential model Q_ij(r) ~ q0 * exp(-mu r^2) per
    shell-class pair."""

    def __init__(self, params: dict[tuple, tuple[float, float]]):
        # params[(key_a, key_b)] = (ln_q0, mu)
        self.params = params

    def estimate(self, key_a: tuple, key_b: tuple,
                 r2: np.ndarray) -> np.ndarray:
        """Vectorized Q estimate for squared distances ``r2``."""
        ka, kb = (key_a, key_b) if key_a <= key_b else (key_b, key_a)
        ln_q0, mu = self.params[(ka, kb)]
        return np.exp(ln_q0 - mu * np.asarray(r2))


def calibrate_schwarz_model(shells: list[Shell],
                            rmax: float = 12.0, nr: int = 16) -> SchwarzModel:
    """Fit the distance model from exact two-shell Schwarz scans.

    One least-squares line per unordered shell-class pair; the r = 0
    point anchors q0 and the tail anchors mu.
    """
    classes: dict[tuple, Shell] = {}
    for sh in shells:
        classes.setdefault(_class_of(sh).key, sh)
    keys = sorted(classes)
    params: dict[tuple, tuple[float, float]] = {}
    for a_i, ka in enumerate(keys):
        for kb in keys[a_i:]:
            sa, sb = classes[ka], classes[kb]
            # scan only where the pair is alive: tight core pairs decay
            # within a fraction of a Bohr, diffuse valence pairs reach
            # many Bohr — an adaptive range keeps the fit in the
            # physically meaningful decades
            mu_est = (sa.exps.min() * sb.exps.min()
                      / (sa.exps.min() + sb.exps.min()))
            r_hi = min(rmax, np.sqrt(60.0 / mu_est))
            rs = np.linspace(0.0, r_hi, nr)
            # one pair class: sa at the origin with sb at every r
            scan = [Shell(sa.l, sa.exps, sa.coefs, np.zeros(3))] + [
                Shell(sb.l, sb.exps, sb.coefs, np.array([0.0, 0.0, r]))
                for r in rs]
            qs = schwarz_diagonals(PairClass(scan, np.column_stack(
                [np.zeros(nr, dtype=np.int64), np.arange(1, nr + 1)])))
            # p-function cross pairs peak at r > 0 (lobe overlap), so
            # anchor the fit at the peak and fit the decay of the tail
            ipk = int(np.argmax(qs))
            q_pk = max(float(qs[ipk]), 1e-300)
            x_pk = float(rs[ipk] ** 2)
            tail = np.arange(len(qs)) > ipk
            tail &= qs > max(q_pk * 1e-40, 1e-120)
            if tail.sum() >= 1:
                lnq = np.log(qs[tail])
                dx = rs[tail] ** 2 - x_pk
                w = qs[tail] ** 0.05
                mu = float(((np.log(q_pk) - lnq) / dx * w).sum() / w.sum())
            else:
                mu = mu_est
            mu = max(mu, 1e-6)
            # express as q0 * exp(-mu r^2) passing through the peak
            ln_q0 = float(np.log(q_pk) + mu * x_pk)
            params[(ka, kb)] = (ln_q0, mu)
    return SchwarzModel(params)


_MODEL_CACHE: dict[str, SchwarzModel] = {}


def _cached_model(basis_name: str, shells: list[Shell]) -> SchwarzModel:
    key = basis_name + "/" + ",".join(sorted({str(_class_of(s).key)
                                              for s in shells}))
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = calibrate_schwarz_model(shells)
    return _MODEL_CACHE[key]


def _model_pair_bounds(mol: Molecule, eps: float, basis_name: str,
                       pair_cutoff_eps: float | None = None):
    """The modelled Schwarz bound of every shell pair within the
    geometric cutoff of the softest class pair: ``(basis, pairs, q)``.

    Only shell *positions* and classes are used; no integrals are
    computed over the large system itself.
    """
    basis = build_basis(mol, basis_name)
    shells = basis.shells
    model = _cached_model(basis_name, shells)
    centers = basis.shell_centers()
    n = len(shells)
    class_keys = [_class_of(s).key for s in shells]
    uniq = sorted(set(class_keys))
    cls_id = np.array([uniq.index(k) for k in class_keys])
    # generous geometric cutoff from the softest class pair
    if pair_cutoff_eps is None:
        pair_cutoff_eps = eps * 1e-3
    mu_min = min(mu for (_, mu) in model.params.values())
    q0_max = max(lnq0 for (lnq0, _) in model.params.values())
    rcut = np.sqrt(max((q0_max - np.log(pair_cutoff_eps)) / mu_min, 1.0))

    tree = cKDTree(centers)
    pairs = tree.query_pairs(r=float(rcut), output_type="ndarray")
    # include the diagonal (i, i) pairs
    diag = np.stack([np.arange(n), np.arange(n)], axis=1)
    pairs = np.vstack([pairs, diag])
    d2 = ((centers[pairs[:, 0]] - centers[pairs[:, 1]]) ** 2).sum(axis=1)

    # estimate Q per pair, grouped by class pair for vectorization
    q = np.empty(len(pairs))
    ca, cb = cls_id[pairs[:, 0]], cls_id[pairs[:, 1]]
    lo = np.minimum(ca, cb)
    hi = np.maximum(ca, cb)
    group = lo * len(uniq) + hi
    for g in np.unique(group):
        m = group == g
        ka, kb = uniq[int(g) // len(uniq)], uniq[int(g) % len(uniq)]
        q[m] = model.estimate(ka, kb, d2[m])
    return basis, pairs, q


def synthetic_tasklist(mol: Molecule, eps: float = 1e-8,
                       basis_name: str = "sto-3g",
                       pair_cutoff_eps: float | None = None,
                       label: str = "") -> TaskList:
    """Build a synthetic (model-Schwarz) task list for a large system."""
    basis, pairs, q = _model_pair_bounds(mol, eps, basis_name,
                                         pair_cutoff_eps)
    shells = basis.shells

    # per-pair separable cost weight
    ls = np.array([s.l for s in shells])
    nps = np.array([s.nprim for s in shells])
    lab = ls[pairs[:, 0]] + ls[pairs[:, 1]]
    npab = nps[pairs[:, 0]] * nps[pairs[:, 1]]
    h = np.array([pair_weight(int(l), int(np_)) for l, np_ in
                  zip(lab, npab)])

    # drop pairs that can never survive with the best partner
    qmax = q.max() if len(q) else 0.0
    keep = q * qmax >= eps
    pairs, q, h = pairs[keep], q[keep], h[keep]

    # unique-quartet survival: the real screen's count and float test
    order = np.argsort(q)[::-1]
    qs, hs = q[order], h[order]
    csum = np.concatenate([[0.0], np.cumsum(hs)])
    end = surviving_partners(qs, eps)
    a_idx = np.arange(len(qs))
    nb = end - a_idx
    cost = hs * (csum[end] - csum[a_idx])
    alive = nb > 0
    return TaskList(
        pair_index=pairs[order][alive],
        flops=cost[alive],
        nquartets=nb[alive],
        eps=eps, nbf=basis.nbf, nocc=mol.nelectron // 2,
        label=label or f"{mol.name}/synthetic",
    )


def water_box_workload(n_molecules: int, eps: float = 1e-8,
                       seed: int = 0) -> TaskList:
    """Liquid-water box workload (the paper's condensed-phase stand-in)."""
    mol, _cell = builders.water_box(n_molecules, seed=seed)
    return synthetic_tasklist(mol, eps=eps,
                              label=f"(H2O){n_molecules} eps={eps:g}")


def electrolyte_workload(solvent: str = "PC", n_solvent: int = 32,
                         eps: float = 1e-8, seed: int = 1) -> TaskList:
    """Lithium/air electrolyte box workload (PC/DMSO/ACN + Li2O2)."""
    mol, _cell = builders.electrolyte_box(solvent, n_solvent, seed=seed)
    return synthetic_tasklist(mol, eps=eps,
                              label=f"{solvent}x{n_solvent}+Li2O2 eps={eps:g}")
