"""Declarative job specifications for the screening service.

A :class:`JobSpec` is the unit of work the campaign runtime schedules:
one SCF single point or one BOMD trajectory, described entirely by
plain values (molecule, basis, method, kernel, thresholds, thermostat
seed) so it can round-trip through JSON, be validated at the service
boundary, and be hashed into a content address for the result cache.

Two hashing rules matter for correctness:

* the **canonical key** covers every field that determines the physics
  of the result — the *resolved* geometry (builder + perturbation
  applied), basis, method, kernel, thresholds, and for MD the full
  integration setup including the thermostat seed — and nothing else;
* **execution fields never enter the key**: executor, worker count,
  and checkpoint placement change where and how fast a job runs, not
  what it computes (the executors are bit-identical by construction),
  so a serial rerun of a pool job is a cache hit.

Float fields are canonicalized through their IEEE-754 value
(``float.hex``), so ``0.5``, ``0.50``, and ``5e-1`` hash identically,
and dict/JSON key order never matters (sorted-key serialization).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..chem.molecule import Molecule
from ..runtime.boundary import KNOBS, check, check_jk_route

__all__ = ["JobSpec", "solvent_screening_specs"]

#: Fields that never enter the canonical key (execution placement).
#: ``jk`` lives here by design: the fitted path reproduces the direct
#: result within its documented error bound, and screening campaigns
#: select it for *throughput* — a direct rerun of an RI job (or vice
#: versa) is a cache hit, exactly like a serial rerun of a pool job.
_EXECUTION_FIELDS = ("executor", "nworkers", "label", "jk")

#: Fields that only matter for (and are only hashed for) MD jobs.
#: The MTS fields are physics, not placement: a multiple-time-stepping
#: trajectory samples a different discrete path than a single-timestep
#: one, so it must never alias it in the result cache.
_MD_FIELDS = ("steps", "dt_fs", "temperature", "thermostat", "tau_fs",
              "seed", "mts_outer", "mts_inner", "mts_aspc_order")


def _canon(value):
    """Canonicalize one value for hashing.

    Floats hash by IEEE-754 value (formatting-independent); ints stay
    ints (so a seed of 1 and a dt of 1.0 cannot alias); containers
    recurse; dicts sort their keys.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, np.floating):
        return float(value).hex()
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_canon(v) for v in value]
    raise TypeError(f"cannot canonicalize {type(value).__name__} for "
                    f"the job hash: {value!r}")


@dataclass(frozen=True)
class JobSpec:
    """One declarative unit of campaign work.

    Parameters
    ----------
    kind:
        ``"scf"`` (single point) or ``"md"`` (BOMD trajectory).
    molecule:
        A builder name from :mod:`repro.chem.builders` (``"water"``,
        ``"dmso"``, ...) or an inline geometry dict with ``symbols``
        and ``coords_angstrom`` (or exact ``coords_bohr``; optional
        ``charge``/``multiplicity``/``name``).
    basis / method:
        Basis-set name and SCF method (``uhf`` is SCF-only).
    charge / multiplicity:
        Overrides applied to a *builder* molecule (an inline geometry
        carries its own).
    perturb / perturb_seed:
        Gaussian coordinate jitter (standard deviation in Bohr, seeded)
        applied to the resolved geometry — the screening campaigns'
        "perturbed geometries" axis.  The jitter is applied before
        hashing, so two specs with different ``perturb_seed`` are
        different cache entries.
    conv_tol / screen_eps / kernel / scf_solver / mode:
        The accuracy and algorithm knobs that determine the result
        (all part of the canonical key).  ``mode=None`` lets
        :func:`repro.scf.fock.make_jk_engine` derive the route (direct
        for pools and ``jk="ri"``, else in-core).  ``kernel`` picks the
        direct walk's block evaluator (``"quartet"``: the per-quartet
        reference, ``"batched"``: the class kernel); both feed the same
        class accumulation, so the two agree to ~1e-13, not bit for bit.
    steps / dt_fs / temperature / thermostat / tau_fs / seed:
        MD-only integration setup; ``seed`` seeds both the initial
        Maxwell-Boltzmann velocities and a CSVR thermostat stream.
    mts_outer / mts_inner / mts_aspc_order:
        MD-only multiple-time-stepping setup (:mod:`repro.md.respa`):
        ``mts_outer > 1`` runs the r-RESPA integrator with the full SCF
        force every ``mts_outer`` steps and the ``mts_inner`` surface
        (``"ff"``/``"lda"``/``"pbe"``) in between; ``mts_aspc_order``
        sets the ASPC density-extrapolation order for the outer SCF
        warm starts (``None`` disables it; unused at ``mts_outer=1``,
        where there is no outer loop).  For ``kind="md"`` these
        are hashed — MTS changes the sampled path, so it is physics,
        not placement.
    executor / nworkers:
        Execution placement — never hashed.
    jk:
        J/K engine placement: ``"direct"`` (exact quartet walk) or
        ``"ri"`` (density-fitted; one cached B tensor per geometry).
        Placement, not physics — never hashed, so the cache serves
        either path's result for the same spec.
    label:
        Free-form display name — never hashed.
    """

    kind: str = "scf"
    molecule: str | dict = "water"
    basis: str = "sto-3g"
    method: str = "hf"
    charge: int = 0
    multiplicity: int = 1
    perturb: float = 0.0
    perturb_seed: int = 0
    conv_tol: float = 1e-8
    screen_eps: float = 1e-10
    kernel: str = "quartet"
    scf_solver: str = "diis"
    mode: str | None = None
    # --- MD only ---
    steps: int = 10
    dt_fs: float = 0.5
    temperature: float | None = None
    thermostat: str = "none"
    tau_fs: float = 50.0
    seed: int = 0
    mts_outer: int = 1
    mts_inner: str = "ff"
    mts_aspc_order: int | None = 2
    # --- execution placement (never hashed) ---
    executor: str = "serial"
    nworkers: int | None = None
    jk: str = "direct"
    label: str = ""

    def __post_init__(self) -> None:
        self.validate()

    # --- validation at the boundary ------------------------------------------

    def validate(self) -> None:
        """Reject a malformed spec with a message naming the field.

        Every field with a row in the boundary table
        (:data:`repro.runtime.boundary.KNOBS` — all but the free-form
        ``molecule``/``basis``/``label``/``temperature``) gets that
        row's type/range/choice check, so a new field cannot be
        forgotten here; the cross-field rules below have this one owner
        (the CLI builds a ``JobSpec`` first and reports its
        ``ValueError``).
        """
        for f in fields(self):      # ``kind`` is declared (checked) first
            key = "md_method" if (f.name, self.kind) == ("method", "md") \
                else f.name
            if key in KNOBS:
                check(key, getattr(self, f.name), owner="JobSpec")
        if not isinstance(self.molecule, (str, dict)) or not self.molecule:
            raise ValueError(
                "JobSpec.molecule must be a builder name or an inline "
                f"geometry dict, got {self.molecule!r}")
        if isinstance(self.molecule, dict):
            if "symbols" not in self.molecule or not (
                    "coords_angstrom" in self.molecule
                    or "coords_bohr" in self.molecule):
                raise ValueError(
                    "inline JobSpec.molecule needs 'symbols' plus "
                    "'coords_angstrom' or 'coords_bohr'")
        check_jk_route(self.mode, self.executor, self.jk)
        mult = self._multiplicity()
        if self.kind == "md":
            if mult != 1:
                raise ValueError(
                    f"JobSpec.multiplicity must be 1 for kind='md' (the "
                    f"trajectory runs the closed-shell drivers), got {mult}")
            if self.thermostat != "none" and self.temperature is None:
                raise ValueError("JobSpec: a thermostat needs a "
                                 "temperature (--temperature)")
        if self.scf_solver != "diis" and (self.method == "uhf" or mult > 1):
            raise ValueError(
                "JobSpec: scf_solver='soscf'/'auto' is wired through "
                "the closed-shell drivers; the UHF path is DIIS-only")

    # --- molecule resolution --------------------------------------------------

    def _multiplicity(self) -> int:
        """The multiplicity the job runs at: an inline geometry carries
        its own (the top-level field overrides builder molecules only,
        see :meth:`resolve_molecule`)."""
        if isinstance(self.molecule, dict):
            return self.molecule.get("multiplicity", 1)
        return self.multiplicity

    def resolve_molecule(self) -> Molecule:
        """The concrete (possibly perturbed) geometry this spec names."""
        if isinstance(self.molecule, dict):
            m = self.molecule
            kw = dict(charge=int(m.get("charge", 0)),
                      multiplicity=int(m.get("multiplicity", 1)),
                      name=str(m.get("name", "")))
            if "coords_bohr" in m:
                from ..chem.elements import element

                numbers = [element(s).z for s in m["symbols"]]
                mol = Molecule(np.asarray(numbers),
                               np.asarray(m["coords_bohr"],
                                          dtype=np.float64), **kw)
            else:
                mol = Molecule.from_symbols(
                    list(m["symbols"]), m["coords_angstrom"], **kw)
        else:
            from ..chem import builders

            try:
                builder = getattr(builders, self.molecule)
            except AttributeError:
                raise ValueError(
                    f"unknown built-in molecule {self.molecule!r}; "
                    f"see repro.chem.builders") from None
            mol = builder()
            if self.charge:
                mol.charge = self.charge
            if self.multiplicity != 1:
                mol.multiplicity = self.multiplicity
        if self.perturb > 0.0:
            rng = np.random.default_rng(self.perturb_seed)
            jitter = rng.normal(scale=self.perturb,
                                size=mol.coords.shape)
            mol = mol.with_coords(mol.coords + jitter)
        return mol

    # --- JSON round-trip ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form; :meth:`from_dict` round-trips it."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, dict):
                v = dict(v)
            out[f.name] = v
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        """Rebuild (and re-validate) a spec from :meth:`to_dict` or any
        hand-written JSON object; unknown keys are an error, not a
        silent drop."""
        if not isinstance(d, dict):
            raise ValueError(
                f"JobSpec.from_dict needs a dict, got {type(d).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(f"JobSpec has no field(s) {unknown} — "
                            f"typo in the spec JSON?")
        return cls(**d)

    def to_json(self) -> str:
        """Compact JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        """Parse :meth:`to_json` (or hand-written) spec text."""
        return cls.from_dict(json.loads(text))

    def replace(self, **changes) -> "JobSpec":
        """A copy with the given fields changed (re-validated)."""
        return replace(self, **changes)

    # --- content address ------------------------------------------------------

    def canonical_key(self) -> str:
        """SHA-256 content address of the result this spec determines.

        Covers the resolved geometry (atomic numbers, exact Bohr
        coordinates, charge, multiplicity) and every physics/algorithm
        knob; for SCF jobs the MD fields are excluded (so an MD spec's
        warm-up single point can never alias a trajectory), and the
        execution-placement fields are always excluded.  Stable across
        dict-key order and float formatting by construction.
        """
        mol = self.resolve_molecule()
        payload = {
            "kind": self.kind,
            "geometry": {
                "numbers": _canon(mol.numbers),
                "coords_bohr": _canon(mol.coords),
                "charge": int(mol.charge),
                "multiplicity": int(mol.multiplicity),
            },
            "basis": self.basis,
            "method": self.method,
            "kernel": self.kernel,
            "scf_solver": self.scf_solver,
            "mode": self.mode,
            "conv_tol": _canon(self.conv_tol),
            "screen_eps": _canon(self.screen_eps),
        }
        if self.kind == "md":
            for name in _MD_FIELDS:
                payload[name] = _canon(getattr(self, name))
        blob = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()


def solvent_screening_specs(solvents=("PC", "DMSO", "ACN"),
                            methods=("hf",), basis: str = "sto-3g",
                            nperturb: int = 1, perturb: float = 0.0,
                            seeds=(0,), kind: str = "scf",
                            jks=("direct",), mts_outers=(1,),
                            **overrides) -> list[JobSpec]:
    """The F7 campaign axis product: solvents x methods x perturbed
    geometries x seeds x J/K engines x MTS strides.

    Each solvent contributes its quantum model fragment (the geometry
    the attack profiles use); ``nperturb`` > 1 adds seeded coordinate
    jitters of width ``perturb`` Bohr; for ``kind="md"`` the ``seeds``
    axis varies the thermostat/velocity seed (distinct cache entries by
    construction).  ``jks`` fans each point over J/K engines — a
    *placement* axis: with both ``("direct", "ri")`` the second variant
    of every point is a cache hit unless the cache is cold, which is
    exactly how the direct-vs-fitted crossover is measured in situ.
    ``mts_outers`` fans MD points over RESPA full-force strides — a
    *physics* axis (each stride is its own cache entry); it is ignored
    for ``kind="scf"``.  Extra keyword arguments pass through to every
    :class:`JobSpec`.
    """
    from ..liair.solvents import get_solvent

    builder_names = {"PC": "carbonate_model", "DMSO": "sulfoxide_model",
                     "ACN": "nitrile_model"}
    specs = []
    mts_axis = tuple(mts_outers) if kind == "md" else (1,)
    for sv in solvents:
        solvent = get_solvent(sv)          # validates the name
        mol_name = builder_names[solvent.name]
        for method in methods:
            for ip in range(max(1, int(nperturb))):
                for seed in (seeds if kind == "md" else seeds[:1]):
                    for jk in jks:
                        for n_mts in mts_axis:
                            specs.append(JobSpec(
                                kind=kind, molecule=mol_name, basis=basis,
                                method=method, jk=jk,
                                perturb=perturb if ip else 0.0,
                                perturb_seed=ip, seed=int(seed),
                                mts_outer=int(n_mts),
                                label=f"{solvent.name}/{method}"
                                      f"/p{ip}/s{seed}"
                                      + (f"/{jk}" if len(jks) > 1 else "")
                                      + (f"/mts{n_mts}"
                                         if len(mts_axis) > 1 else ""),
                                **overrides))
    return specs
