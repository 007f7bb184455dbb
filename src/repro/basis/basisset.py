"""Basis-set construction: molecule + basis name -> list of shells.

The :class:`BasisSet` is the central bookkeeping object of the quantum
side of the package: it owns the shells, the per-shell offsets into the
flat AO index space, and the AO labels the reports use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..chem.molecule import Molecule
from .data import BASIS_LIBRARY
from .shell import Shell, AM_LABELS, cartesian_components
from .shellpair import ShellPair, build_shell_pairs

__all__ = ["BasisSet", "build_basis"]


@dataclass
class BasisSet:
    """A molecule's basis: shells plus AO-index bookkeeping."""

    molecule: Molecule
    name: str
    shells: list[Shell]
    offsets: np.ndarray = field(init=False)   # first AO index of each shell
    nbf: int = field(init=False)

    def __post_init__(self) -> None:
        off = np.zeros(len(self.shells) + 1, dtype=np.int64)
        for i, sh in enumerate(self.shells):
            off[i + 1] = off[i] + sh.nfunc
        self.offsets = off[:-1]
        self.nbf = int(off[-1])

    @property
    def nshell(self) -> int:
        """Number of shells."""
        return len(self.shells)

    def shell_slice(self, i: int) -> slice:
        """AO-index slice covered by shell ``i``."""
        return slice(int(self.offsets[i]),
                     int(self.offsets[i]) + self.shells[i].nfunc)

    def shell_slices(self) -> list[slice]:
        """All per-shell AO slices, computed once per basis object.

        Every integral walk (4-index tensor fill, J/K scatters, and the
        2-/3-index RI builders) needs the same shell->AO slice list;
        caching it here gives them one shared copy instead of a
        per-call rebuild.
        """
        cached = self.__dict__.get("_slices_cache")
        if cached is None:
            cached = [self.shell_slice(i) for i in range(self.nshell)]
            self.__dict__["_slices_cache"] = cached
        return cached

    def shell_pairs(self) -> dict[tuple[int, int], ShellPair]:
        """The full ``(i, j)``, ``i <= j`` shell-pair table of the
        per-quartet reference kernel, built once per basis object (at the
        first :meth:`repro.integrals.eri.ERIEngine.quartet`); every other
        integral walk reads the pair classes
        (:func:`repro.integrals.pairclass.pair_classes`) instead.
        """
        cached = self.__dict__.get("_pairs_cache")
        if cached is None:
            cached = build_shell_pairs(self.shells)
            self.__dict__["_pairs_cache"] = cached
        return cached

    def __getstate__(self) -> dict:
        # only a ``spawn``-started pool worker still receives a basis
        # by pickle (every other boundary carries the codec's
        # ``BasisSet`` record); the derived ``_*_cache`` tables (slices,
        # Schwarz bounds, shell pairs) rebuild lazily on the other side,
        # and shipping them would blow a used Li2O2 basis up from
        # 3.9 kB to 250 kB
        return {k: v for k, v in self.__dict__.items()
                if not (k.startswith("_") and k.endswith("_cache"))}

    def ao_labels(self) -> list[str]:
        """Human-readable labels like ``'0 O 2px'`` for every AO."""
        labels = []
        per_atom_count: dict[int, dict[int, int]] = {}
        for sh in self.shells:
            counts = per_atom_count.setdefault(sh.atom, {})
            n_before = counts.get(sh.l, 0)
            counts[sh.l] = n_before + 1
            pq = n_before + sh.l + 1  # crude principal quantum number label
            sym = self.molecule.symbols[sh.atom] if sh.atom >= 0 else "X"
            for (lx, ly, lz) in cartesian_components(sh.l):
                tag = AM_LABELS[sh.l] + "x" * lx + "y" * ly + "z" * lz
                labels.append(f"{sh.atom} {sym} {pq}{tag}")
        return labels

    def shell_centers(self) -> np.ndarray:
        """Shell centers, shape ``(nshell, 3)`` Bohr."""
        return np.array([sh.center for sh in self.shells])

    def max_l(self) -> int:
        """Highest angular momentum present."""
        return max(sh.l for sh in self.shells)


def build_basis(mol: Molecule, name: str = "sto-3g") -> BasisSet:
    """Construct a :class:`BasisSet` for ``mol`` from a built-in library set.

    Pople shared-exponent SP shells are expanded into separate s and p
    shells (same exponents, distinct contraction columns), which is what
    the integral engine expects.
    """
    key = name.lower()
    try:
        table = BASIS_LIBRARY[key]
    except KeyError:
        raise ValueError(
            f"unknown basis {name!r}; available: {sorted(BASIS_LIBRARY)}"
        ) from None
    shells: list[Shell] = []
    for iatom, sym in enumerate(mol.symbols):
        if sym not in table:
            raise ValueError(f"basis {name!r} has no data for element {sym}")
        for shell_type, exps, coef_by_l in table[sym]:
            ls = [0] if shell_type == "S" else sorted(coef_by_l)
            for l in ls:
                shells.append(Shell(l, np.array(exps),
                                    np.array(coef_by_l[l]),
                                    mol.coords[iatom], atom=iatom))
    return BasisSet(mol, key, shells)
