"""The one rule from method and spin to SCF driver, shared by
:func:`repro.api.run_scf`, the MD force engine and the attack profiles,
so every entry point runs (or refuses) the same thing."""

from __future__ import annotations

from ..basis.basisset import BasisSet
from ..chem.molecule import Molecule
from .dft import RKS
from .rhf import RHF
from .uhf import UHF

__all__ = ["scf_driver"]


def scf_driver(mol: Molecule, method: str = "hf",
               basis: str | BasisSet = "sto-3g", config=None, **kw) -> RHF:
    """The SCF driver that runs ``method`` on ``mol``.

    - ``"uhf"``, or ``"hf"`` on an open shell: :class:`UHF`, on the
      DIIS loop (``scf_solver="soscf"`` is refused, ``"auto"`` runs
      DIIS — the Newton solver's rotations are closed-shell);
    - ``"hf"``: :class:`RHF`;
    - any other method is a Kohn-Sham functional: :class:`RKS`, refused
      on an open shell (there is no unrestricted Kohn-Sham).

    ``config`` and ``kw`` go to the driver's constructor.
    """
    from ..runtime.execconfig import resolve_execution

    cfg = resolve_execution(config, owner="scf_driver")
    method = method.lower()
    open_shell = mol.multiplicity > 1
    if method == "uhf" or (method == "hf" and open_shell):
        if cfg.scf_solver == "soscf":
            raise ValueError(
                f"scf_solver='soscf' is not available for the "
                f"UHF/open-shell route (molecule {mol.name!r}, "
                f"multiplicity {mol.multiplicity}): the Newton solver's "
                f"rotation parametrization is closed-shell only — use "
                f"scf_solver='diis'")
        return UHF(mol, basis, config=cfg.replace(scf_solver="diis"), **kw)
    if open_shell:
        raise ValueError(
            f"method={method!r} cannot run the open-shell "
            f"{mol.name or 'molecule'} (multiplicity {mol.multiplicity}): "
            f"there is no unrestricted Kohn-Sham; use method='uhf'")
    if method == "hf":
        return RHF(mol, basis, config=cfg, **kw)
    return RKS(mol, basis, functional=method, config=cfg, **kw)
