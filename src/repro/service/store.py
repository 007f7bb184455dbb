"""JSON results store: the campaign's durable output surface.

One record per job, written atomically as the scheduler retires jobs.
The queue state beside it is a compacted snapshot (``campaign.json``)
plus an append-only, per-line checksummed journal
(``campaign.journal``, one fsync'd line per transition) that the
scheduler owns, so ``repro campaign submit`` / ``run`` / ``status`` /
``results`` can be separate processes.  A retiring job's record lands
here before its journal line.  The analysis layer reads this store
back through :func:`repro.analysis.report.campaign_table` — the
service writes, the analysis reads, and the schema envelope
(:mod:`repro.runtime.schema`) is the contract between them.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..runtime.fsio import atomic_write_text
from ..runtime.schema import check_envelope

__all__ = ["ResultsStore"]


class ResultsStore:
    """Per-job JSON records under ``<directory>/results/``."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.results_dir = self.directory / "results"

    @staticmethod
    def _name(job_id: int) -> str:
        return f"job-{int(job_id):05d}.json"

    def write(self, job_id: int, record: dict) -> Path:
        """Atomically persist one job record (a schema envelope).

        Unique-temp + fsync + replace (:mod:`repro.runtime.fsio`), so a
        crash mid-write can never leave a torn record and two processes
        retiring the same job id race complete files, not fragments.
        """
        check_envelope(record)
        path = self.results_dir / self._name(job_id)
        return atomic_write_text(path, json.dumps(record, sort_keys=True))

    def read(self, job_id: int) -> dict:
        """One job record, envelope-checked at the boundary."""
        path = self.results_dir / self._name(job_id)
        try:
            record = json.loads(path.read_text())
        except OSError as e:
            raise FileNotFoundError(
                f"no stored result for job {job_id} in "
                f"'{self.results_dir}'") from e
        return check_envelope(record)

    def job_ids(self) -> list[int]:
        """IDs with stored results, ascending."""
        if not self.results_dir.is_dir():
            return []
        ids = []
        for path in self.results_dir.glob("job-*.json"):
            stem = path.stem.split("-", 1)[-1]
            if stem.isdigit():
                ids.append(int(stem))
        return sorted(ids)

    def read_all(self) -> list[dict]:
        """Every stored record, by ascending job id."""
        return [self.read(i) for i in self.job_ids()]
