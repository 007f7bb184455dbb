"""``--write-reference``: recompute ``bench/reference.json``.

SCF entries come from the independent path — serial in-core tensor J/K,
per-quartet kernel, plain DIIS (:func:`bench.workloads.reference_spec`) —
so the direct/batched and density-fitted workloads are checked against
code they do not run.  MD entries are the trajectory's own path recorded
once (BOMD has no second implementation): they pin today's answer for
later force/integrator work.  Each entry carries the canonical key of the
spec it was computed from, so a changed generator is caught as a stale
reference instead of a silent mismatch.
"""

from __future__ import annotations

import json
import sys

from .env import scrub_in_place

scrub_in_place()                      # before anything imports numpy

TOLERANCES = {
    "direct_ha": 1e-7,                # direct/batched vs in-core tensor
    "ri_ha_per_atom": 5e-5,           # fitted vs in-core tensor, per atom
    # the sulfoxide model (second-row S) measures 6.5e-5 Ha/atom for HF,
    # above the 5e-5 DESIGN.md documents; see bench/README.md
    "campaign_ri_ha_per_atom": 1e-4,
    "md_energy_ha": 1e-6,             # final potential energy
    "md_drift_rel": 1e-6,             # floor on the allowed relative drift
    "inline_ha": 1e-10,               # campaign vs inline, lane vs lane
}


def main(argv) -> int:
    from pathlib import Path

    from repro import api

    from .workloads import md_label, pool_specs, reference_spec

    job = json.loads(argv[1])
    scf_specs, md_specs = pool_specs()
    scf, md = {}, {}
    for i, spec in enumerate(scf_specs):
        ref = reference_spec(spec)
        res = api.run_scf(ref)
        if not res["scf"]["converged"]:
            raise RuntimeError(f"reference SCF {spec.label} did not converge")
        scf[spec.label] = {"energy": res["scf"]["energy"],
                           "natom": res["molecule"]["natom"],
                           "key": ref.canonical_key()}
        print(f"[{i + 1}/{len(scf_specs)}] {spec.label} "
              f"{res['scf']['energy']:.10f} ({res['wall_s']:.1f} s)",
              flush=True)
    for i, spec in enumerate(md_specs):
        res = api.run_md(spec)
        md[md_label(spec)] = {"energy_pot": res["final"]["energy_pot"],
                              "drift": res["md"]["drift"],
                              "key": spec.canonical_key()}
        print(f"[{i + 1}/{len(md_specs)}] {md_label(spec)} "
              f"{res['final']['energy_pot']:.10f} ({res['wall_s']:.1f} s)",
              flush=True)
    doc = {"schema_version": 1, "tolerances": TOLERANCES,
           "scf": dict(sorted(scf.items())), "md": dict(sorted(md.items()))}
    Path(job["reference"]).write_text(json.dumps(doc, indent=1) + "\n")
    Path(job["result"]).write_text("{}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
