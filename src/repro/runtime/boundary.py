"""The one boundary table: every knob, choice and ``REPRO_*`` override.

The paper's scheme is configured once, at the edge, and then runs a
static master-less schedule.  This module *is* that edge: one
declarative row per knob (:data:`KNOBS`) and one validator pair —
:func:`check` (type / range / choice refusal with a message naming the
field) and :func:`resolve` (``None`` → ``REPRO_*`` variable → default,
the message naming the variable when the environment supplied the bad
value).  ``ExecutionConfig``, ``JobSpec``, ``CampaignService``, the pool,
the lane transport and the CLI all validate through these rows; every
enumeration tuple is defined here once and imported everywhere else,
and no other module of ``repro`` reads a ``REPRO_*`` variable.

Roles: ``placement`` knobs change where and how fast a job runs,
``numerics`` knobs change (or label) what is computed, ``observation``
knobs change what is recorded about it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

__all__ = [
    "Knob", "KNOBS", "check", "resolve", "from_text", "parse_fault",
    "fault_fields", "env_text", "default_nworkers", "ENV_VARS",
    "EXECUTORS", "KERNELS", "JK_ENGINES", "SCF_SOLVERS", "JK_BUILD_MODES",
    "SERVICE_TRANSPORTS", "MTS_INNER_ENGINES", "THERMOSTATS", "JOB_KINDS",
    "SCF_METHODS", "MD_METHODS", "WORKLOAD_SYSTEMS",
    "resolve_pool_timeout", "resolve_nworkers", "resolve_pool_max_retries",
    "resolve_checkpoint_every", "check_jk_route",
]

EXECUTORS = ("serial", "process")
KERNELS = ("quartet", "batched")
JK_ENGINES = ("direct", "ri")
SCF_SOLVERS = ("diis", "soscf", "auto")
JK_BUILD_MODES = ("incore", "direct")
#: ``"local"`` (one inline lane, the bit-exact reference) or
#: ``"process"`` forked lane workers (:mod:`repro.service.transport`).
SERVICE_TRANSPORTS = ("local", "process")
#: Cheap inner-loop force surfaces the RESPA integrator accepts: the
#: classical force field, or a pure (no-HFX) DFT functional.  Hybrids
#: and HF would put the expensive exchange build back into the fast
#: loop that MTS exists to avoid.
MTS_INNER_ENGINES = ("ff", "lda", "pbe")
THERMOSTATS = ("none", "csvr", "berendsen")
JOB_KINDS = ("scf", "md")
SCF_METHODS = ("hf", "uhf", "lda", "pbe", "pbe0")
MD_METHODS = ("hf", "lda", "pbe", "pbe0")
WORKLOAD_SYSTEMS = ("water", "pc", "dmso", "acn")


def default_nworkers() -> int:
    """Worker count when the caller does not choose: the usable cores."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without affinity masks
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class Knob:
    """One row of the boundary table.

    ``name`` is the field as error messages spell it (two rows may
    share a name under different table keys: the MD method set, the
    campaign's lane count).  ``lo`` bounds ``int``/``float`` kinds from
    below — inclusive unless ``open`` — and ``None`` leaves them
    unbounded.  ``optional`` rows accept ``None`` as a stored value
    (auto / off / "resolve at use"); ``default`` may be a callable
    evaluated at resolve time.
    """

    name: str
    kind: str                      # "int" | "float" | "choice"
    role: str                      # "placement" | "numerics" | "observation"
    default: object = None
    key: str = ""                  # table key when it differs from ``name``
    lo: float | None = None
    open: bool = False
    choices: tuple = ()
    env: str | None = None
    flag: str | None = None
    unit: str = ""
    optional: bool = False

    def describe(self) -> str:
        """What a valid value is, as refusal messages phrase it."""
        if self.kind == "choice":
            quoted = [repr(c) for c in self.choices]
            if len(quoted) == 2:
                return " or ".join(quoted)
            return ", ".join(quoted[:-1]) + f", or {quoted[-1]}"
        integer = self.kind == "int"
        noun = "integer" if integer else "number"
        if self.lo is None:
            what = f"an {noun}" if integer else f"a {noun}"
        elif self.lo == 1 if integer else (self.lo == 0 and self.open):
            what = f"a positive {noun}"
        elif self.lo == 0 and not self.open:
            what = f"a non-negative {noun}"
        else:
            what = f"a{'n' if integer else ''} {noun} " \
                   f"{'>' if self.open else '>='} {self.lo}"
        return what + (f" ({self.unit})" if self.unit else "")


# Declaration order is placement, numerics, observation — the order
# ``ExecutionConfig`` declares its fields in.
_ROWS = (
    # --- placement: where and how fast ---
    Knob("executor", "choice", "placement", "serial", choices=EXECUTORS,
         flag="--executor"),
    Knob("nworkers", "int", "placement", default_nworkers, lo=1,
         flag="--nworkers", optional=True),
    Knob("pool_timeout", "float", "placement", 120.0, lo=0, open=True,
         env="REPRO_POOL_TIMEOUT", unit="seconds", optional=True),
    Knob("pool_max_retries", "int", "placement", 2, lo=0,
         env="REPRO_POOL_MAX_RETRIES", optional=True),
    Knob("service_transport", "choice", "placement",
         choices=SERVICE_TRANSPORTS, flag="--transport", optional=True),
    Knob("heartbeat", "float", "placement", 1.0, lo=0, open=True,
         env="REPRO_SERVICE_HEARTBEAT", unit="seconds"),
    Knob("nworkers", "int", "placement", 1, key="lanes", lo=1,
         flag="--lanes"),
    Knob("max_retries", "int", "placement", 1, lo=0, flag="--max-retries"),
    Knob("preempt_steps", "int", "placement", lo=1, flag="--preempt-steps",
         unit="MD steps", optional=True),
    # --- numerics: what is computed ---
    Knob("kernel", "choice", "numerics", "quartet", choices=KERNELS,
         flag="--kernel"),
    Knob("jk", "choice", "numerics", "direct", choices=JK_ENGINES,
         flag="--jk"),
    Knob("scf_solver", "choice", "numerics", "diis", choices=SCF_SOLVERS,
         flag="--scf-solver"),
    Knob("mode", "choice", "numerics", choices=JK_BUILD_MODES,
         flag="--mode", optional=True),
    Knob("kind", "choice", "numerics", "scf", choices=JOB_KINDS,
         flag="--kind"),
    Knob("method", "choice", "numerics", "hf", choices=SCF_METHODS,
         flag="--method"),
    Knob("method", "choice", "numerics", "hf", key="md_method",
         choices=MD_METHODS, flag="--method"),
    Knob("charge", "int", "numerics", 0, flag="--charge"),
    Knob("multiplicity", "int", "numerics", 1, lo=1, flag="--multiplicity"),
    Knob("perturb", "float", "numerics", 0.0, lo=0, flag="--perturb",
         unit="Bohr"),
    Knob("perturb_seed", "int", "numerics", 0, lo=0),
    Knob("nperturb", "int", "numerics", 1, lo=1, flag="--nperturb"),
    Knob("conv_tol", "float", "numerics", 1e-8, lo=0, open=True),
    Knob("screen_eps", "float", "numerics", 1e-10, lo=0, open=True),
    Knob("steps", "int", "numerics", 10, lo=1, flag="--steps",
         unit="MD steps"),
    Knob("dt_fs", "float", "numerics", 0.5, lo=0, open=True, flag="--dt",
         unit="fs"),
    Knob("tau_fs", "float", "numerics", 50.0, lo=0, open=True, flag="--tau",
         unit="fs"),
    Knob("thermostat", "choice", "numerics", "none", choices=THERMOSTATS,
         flag="--thermostat"),
    Knob("seed", "int", "numerics", 0, lo=0, flag="--seed"),
    Knob("mts_outer", "int", "numerics", 1, lo=1, flag="--mts-outer",
         unit="inner steps per full-force step"),
    Knob("mts_inner", "choice", "numerics", "ff", choices=MTS_INNER_ENGINES,
         flag="--mts-inner"),
    Knob("mts_aspc_order", "int", "numerics", 2, lo=0,
         flag="--mts-aspc-order", optional=True),
    Knob("system", "choice", "numerics", "water", key="workload_system",
         choices=WORKLOAD_SYSTEMS),
    # --- observation: what is recorded ---
    Knob("checkpoint_every", "int", "observation", 10, lo=1,
         env="REPRO_CHECKPOINT_EVERY", flag="--checkpoint-every",
         unit="MD steps", optional=True),
    Knob("checkpoint_keep", "int", "observation", 3, lo=1,
         flag="--checkpoint-keep", unit="snapshots", optional=True),
)

KNOBS: dict[str, Knob] = {knob.key or knob.name: knob for knob in _ROWS}

#: The two fault-injection variables (grammars, not scalar knobs).
FAULT_VARS = ("REPRO_POOL_FAULT", "REPRO_SERVICE_FAULT")

#: Every ``REPRO_*`` variable the program reads.
ENV_VARS = tuple(k.env for k in KNOBS.values() if k.env) + FAULT_VARS


def env_text(var: str) -> str | None:
    """The raw text of one of :data:`ENV_VARS` (``None`` when unset) —
    the only environment read of a ``REPRO_*`` name in the package, so
    a variable without a table row cannot be read at all."""
    if var not in ENV_VARS:
        raise KeyError(f"{var} is not a registered REPRO_* variable")
    return os.environ.get(var)


def _validated(knob: Knob, value, label: str, got):
    """``value`` if the row admits it, else the refusal naming ``label``
    (``got`` is what the caller wrote — the raw text on the env path)."""
    if knob.kind == "choice":
        ok = isinstance(value, str) and value in knob.choices
    else:
        # bool passes isinstance(int): True would silently mean 1 worker,
        # 1 s, every step
        types = int if knob.kind == "int" else (int, float)
        ok = isinstance(value, types) and not isinstance(value, bool)
        if ok and knob.lo is not None:
            ok = value > knob.lo if knob.open else value >= knob.lo
    if not ok:
        raise ValueError(f"{label} must be {knob.describe()}, got {got!r}")
    return float(value) if knob.kind == "float" else value


def check(key: str, value, owner: str | None = None):
    """Validate an explicitly given value against row ``key``.

    No fallback: ``None`` passes only on ``optional`` rows.  Numeric
    strings are refused (a hashed ``JobSpec`` field must not alias
    ``3`` and ``"3"``).  Returns the value (``float`` kinds as
    ``float``); raises ``ValueError`` naming ``owner.field``.
    """
    knob = KNOBS[key]
    if value is None and knob.optional:
        return None
    label = f"{owner}.{knob.name}" if owner else knob.name
    return _validated(knob, value, label, value)


def from_text(key: str, text: str, label: str):
    """Parse and validate row ``key`` from text (an environment value
    or a CLI token); refusals name ``label``."""
    knob = KNOBS[key]
    parse = {"int": int, "float": float, "choice": str}[knob.kind]
    try:
        value = parse(text)
    except ValueError:
        value = None            # never valid: refused below with the text
    return _validated(knob, value, label, text)


def resolve(key: str, value=None, owner: str | None = None):
    """The value row ``key`` runs with: ``value`` if given (validated),
    else its ``REPRO_*`` variable (validated, refusal naming the
    variable), else the default."""
    if value is not None:
        return check(key, value, owner)
    knob = KNOBS[key]
    raw = env_text(knob.env) if knob.env else None
    if raw is not None:
        return from_text(key, raw, knob.env)
    return knob.default() if callable(knob.default) else knob.default


resolve_nworkers = partial(resolve, "nworkers")
resolve_pool_timeout = partial(resolve, "pool_timeout")
resolve_pool_max_retries = partial(resolve, "pool_max_retries")
resolve_checkpoint_every = partial(resolve, "checkpoint_every")


def check_jk_route(mode: str | None, executor: str, jk: str) -> None:
    """Validate a requested J/K build ``mode`` (``None`` = let
    :func:`repro.scf.fock.make_jk_engine` derive it) against the
    ``mode`` row, and refuse the routes the in-core tensor path cannot
    serve — the one validator of the choice, for ``JobSpec.validate``,
    the SCF drivers and the factory."""
    check("mode", mode)
    if mode != "incore":
        return
    if executor == "process":
        raise ValueError("executor='process' requires mode='direct', not "
                         "mode='incore' (the in-core tensor path has no "
                         "quartet loop to distribute)")
    if jk == "ri":
        raise ValueError("jk='ri' requires mode='direct', not "
                         "mode='incore' (the in-core path materializes the "
                         "exact 4-index tensor — fitting it buys nothing)")


# --- fault-injection grammar (tests and benchmarks only) ----------------------

def fault_fields(spec: str | None, var: str, keys: tuple, usage: str
                 ) -> dict[str, str] | None:
    """Split the ``key=val,...`` text of fault variable ``var`` into its
    fields; ``None`` when unset/empty, ``ValueError`` naming ``var`` on
    a field outside ``keys``."""
    if not spec:
        return None
    fields = {}
    for part in spec.split(","):
        key, sep, val = part.partition("=")
        if not sep or key.strip() not in keys:
            raise ValueError(f"{var}: bad field {part!r} in {spec!r} "
                             f"(expected {usage})")
        fields[key.strip()] = val.strip()
    return fields


def parse_fault(spec: str | None, var: str, nth_key: str, modes: tuple):
    """The one worker-fault grammar:
    ``worker=<id|*>[,<nth_key>=<n>][,mode=<modes>]``.

    The matching worker (``*`` = any) acts out ``mode`` at the start of
    its ``n``-th unit of work (1-based, default 1; the default mode is
    the first of ``modes``).  Returns ``(worker, n, mode)`` or ``None``
    when unset; every refusal names ``var``.
    """
    usage = f"worker=<id|*>[,{nth_key}=<n>][,mode=<{'|'.join(modes)}>]"
    fields = fault_fields(spec, var, ("worker", nth_key, "mode"), usage)
    if fields is None:
        return None
    try:
        worker = fields["worker"]
        if worker != "*":
            worker = int(worker)
        nth = int(fields.get(nth_key, "1"))
        mode = fields.get("mode", modes[0])
        if nth < 1 or mode not in modes:
            raise ValueError
    except (KeyError, ValueError):
        raise ValueError(
            f"{var} must look like {usage!r}, got {spec!r}") from None
    return worker, nth, mode
