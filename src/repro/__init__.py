"""repro — reproduction of "Shedding Light on Lithium/Air Batteries
Using Millions of Threads on the BG/Q Supercomputer" (IPDPS 2014).

Subpackages
-----------
chem / basis / integrals / scf
    The quantum-chemistry substrate: molecules, Gaussian bases,
    McMurchie-Davidson integrals, RHF and PBE/PBE0 Kohn-Sham SCF.
hfx
    The paper's contribution: the screened, statically balanced,
    hierarchically threaded Hartree-Fock exact-exchange scheme, its
    task lists and partitioners, the synthetic condensed-phase workload
    generator, and the replicated/dynamic baseline.
machine
    The Blue Gene/Q machine model (5-D torus, collectives, OpenMP-like
    thread teams, QPX-like SIMD, node compute model, build simulator):
    every modelled price.
runtime
    What executes: the rank-job executor and its process pool, worker
    supervision, checkpoints and the wall-clock tracer.
md / liair
    Molecular dynamics (classical + Born-Oppenheimer) and the
    lithium/air electrolyte degradation application.
analysis
    Scaling-law fits, paper-style tables, ASCII figures.
service / api
    The high-throughput screening service (declarative job specs,
    campaign scheduler, content-addressed result cache) and the stable
    :mod:`repro.api` facade every consumer should call through.
"""

from . import analysis, basis, chem, constants, hfx, integrals, liair
from . import machine, md, runtime, scf, service
from . import api

__version__ = "1.0.0"

# convenience top-level API
from .chem import Molecule, builders
from .basis import build_basis
from .scf import run_rhf
from .scf.dft import run_rks
from .hfx import (HFXScheme, ReplicatedDynamicBaseline, build_tasklist,
                  water_box_workload, distributed_exchange)
from .machine import bgq_racks, BGQConfig
from .runtime import ExecutionConfig, Tracer
from .service import JobSpec, CampaignService

__all__ = [
    "analysis", "api", "basis", "chem", "constants", "hfx", "integrals",
    "liair", "machine", "md", "runtime", "scf", "service",
    "Molecule", "builders", "build_basis", "run_rhf", "run_rks",
    "JobSpec", "CampaignService",
    "HFXScheme", "ReplicatedDynamicBaseline", "build_tasklist",
    "water_box_workload", "distributed_exchange",
    "bgq_racks", "BGQConfig", "ExecutionConfig", "Tracer",
    "__version__",
]
