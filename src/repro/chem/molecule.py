"""Molecule container and geometry operations.

A :class:`Molecule` is an immutable-ish record of atomic numbers and
Cartesian coordinates (Bohr).  It is the lingua franca between the
geometry builders, the basis-set machinery, the SCF driver, and the MD
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import BOHR_PER_ANGSTROM
from .elements import element, mass_amu

__all__ = ["Molecule", "nuclear_repulsion"]


@dataclass
class Molecule:
    """A molecular geometry.

    Parameters
    ----------
    numbers:
        Atomic numbers, shape ``(natom,)``.
    coords:
        Cartesian coordinates in Bohr, shape ``(natom, 3)``.
    charge:
        Total molecular charge.
    multiplicity:
        Spin multiplicity 2S+1 (the RHF code requires 1).
    """

    numbers: np.ndarray
    coords: np.ndarray
    charge: int = 0
    multiplicity: int = 1
    name: str = ""
    _symbols: tuple[str, ...] = field(init=False, repr=False, default=())

    def __post_init__(self) -> None:
        # own copies: a caller that goes on mutating the arrays it
        # passed in (an MD or finite-difference loop) must not move a
        # molecule that bases and cached integrals were built from
        self.numbers = np.array(self.numbers, dtype=np.int64)
        self.coords = np.array(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ValueError(f"coords must be (natom, 3); got {self.coords.shape}")
        if len(self.numbers) != len(self.coords):
            raise ValueError("numbers and coords disagree on atom count")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        self._symbols = tuple(element(int(z)).symbol for z in self.numbers)

    # --- constructors ------------------------------------------------------

    @classmethod
    def from_symbols(
        cls,
        symbols: list[str],
        coords_angstrom,
        charge: int = 0,
        multiplicity: int = 1,
        name: str = "",
    ) -> "Molecule":
        """Build from element symbols and coordinates given in Angstrom."""
        numbers = [element(s).z for s in symbols]
        coords = np.asarray(coords_angstrom, dtype=np.float64) * BOHR_PER_ANGSTROM
        return cls(np.asarray(numbers), coords, charge, multiplicity, name)

    @classmethod
    def from_xyz_string(cls, text: str, charge: int = 0,
                        multiplicity: int = 1) -> "Molecule":
        """Parse the standard XYZ file format (coordinates in Angstrom)."""
        lines = [ln for ln in text.strip().splitlines()]
        natom = int(lines[0].split()[0])
        name = lines[1].strip() if len(lines) > 1 else ""
        symbols, coords = [], []
        for ln in lines[2:2 + natom]:
            parts = ln.split()
            symbols.append(parts[0])
            coords.append([float(x) for x in parts[1:4]])
        if len(symbols) != natom:
            raise ValueError(f"XYZ header promised {natom} atoms, found {len(symbols)}")
        return cls.from_symbols(symbols, coords, charge, multiplicity, name)

    # --- basic properties ---------------------------------------------------

    @property
    def natom(self) -> int:
        """Number of atoms."""
        return len(self.numbers)

    @property
    def symbols(self) -> tuple[str, ...]:
        """Element symbols, one per atom."""
        return self._symbols

    @property
    def nelectron(self) -> int:
        """Number of electrons (sum of Z minus charge)."""
        return int(self.numbers.sum()) - self.charge

    @property
    def masses(self) -> np.ndarray:
        """Atomic masses in electron-mass units, shape ``(natom,)``."""
        from ..constants import EMASS_PER_AMU

        return np.array([mass_amu(int(z)) for z in self.numbers]) * EMASS_PER_AMU

    # --- geometry -----------------------------------------------------------

    def distance(self, i: int, j: int) -> float:
        """Interatomic distance in Bohr."""
        return float(np.linalg.norm(self.coords[i] - self.coords[j]))

    def distance_matrix(self) -> np.ndarray:
        """All pairwise distances in Bohr, shape ``(natom, natom)``."""
        d = self.coords[:, None, :] - self.coords[None, :, :]
        return np.sqrt((d * d).sum(axis=-1))

    def center_of_mass(self) -> np.ndarray:
        """Center of mass in Bohr."""
        m = self.masses
        return (m[:, None] * self.coords).sum(axis=0) / m.sum()

    def translated(self, shift: np.ndarray) -> "Molecule":
        """Return a copy translated by ``shift`` (Bohr)."""
        return Molecule(self.numbers, self.coords + np.asarray(shift),
                        self.charge, self.multiplicity, self.name)

    def rotated(self, axis: np.ndarray, angle: float) -> "Molecule":
        """Return a copy rotated by ``angle`` radians about ``axis``
        (through the origin, Rodrigues formula)."""
        k = np.asarray(axis, dtype=np.float64)
        k = k / np.linalg.norm(k)
        c, s = np.cos(angle), np.sin(angle)
        kmat = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
        rot = np.eye(3) * c + s * kmat + (1 - c) * np.outer(k, k)
        return Molecule(self.numbers, self.coords @ rot.T,
                        self.charge, self.multiplicity, self.name)

    def with_coords(self, coords: np.ndarray) -> "Molecule":
        """Return a copy with replaced coordinates (Bohr); ``coords``
        itself is copied, not kept."""
        return Molecule(self.numbers, coords, self.charge,
                        self.multiplicity, self.name)

    def __add__(self, other: "Molecule") -> "Molecule":
        """Union of two geometries (charges add, multiplicity reset to 1)."""
        return Molecule(
            np.concatenate([self.numbers, other.numbers]),
            np.vstack([self.coords, other.coords]),
            self.charge + other.charge,
            1,
            f"{self.name}+{other.name}" if self.name and other.name else
            (self.name or other.name),
        )

    def to_xyz_string(self, comment: str | None = None) -> str:
        """Serialize to XYZ format (Angstrom)."""
        from ..constants import ANGSTROM_PER_BOHR

        lines = [str(self.natom), comment if comment is not None else self.name]
        for sym, xyz in zip(self.symbols, self.coords * ANGSTROM_PER_BOHR):
            lines.append(f"{sym:<3s} {xyz[0]:15.8f} {xyz[1]:15.8f} {xyz[2]:15.8f}")
        return "\n".join(lines) + "\n"


def nuclear_repulsion(mol: Molecule) -> float:
    """Classical Coulomb repulsion energy of the nuclei (Hartree)."""
    e = 0.0
    z = mol.numbers.astype(np.float64)
    r = mol.distance_matrix()
    iu = np.triu_indices(mol.natom, k=1)
    if iu[0].size:
        e = float(((z[iu[0]] * z[iu[1]]) / r[iu]).sum())
    return e
