#!/usr/bin/env python3
"""End-to-end dashboard smoke: tiny sweep -> ledger -> `repro report`.

Runs a 4-point sweep (2 workloads x 2 seeds, a few hundred records
each) into a scratch ledger and result cache twice — once in-process
(``jobs=1``) and once over a two-worker process pool, each into a
fresh cache — and requires bit-identical results from both. It then
renders the HTML dashboard of both runs through the real `repro
report` CLI path, re-extracts the embedded JSON payload and validates
it against the ledger schema.
CI runs this as the ``report-smoke`` job and uploads the dashboard as
an artifact; `make report-smoke` is the local equivalent.

Exit code is non-zero on any failure: sweep, serial/parallel mismatch,
render, or validation.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def main(argv=None) -> int:
    out = Path(argv[0]) if argv else Path("report-smoke.html")
    with tempfile.TemporaryDirectory(prefix="repro-report-smoke-") as scratch:
        ledger_path = Path(scratch) / "ledger.jsonl"
        os.environ["REPRO_LEDGER"] = str(ledger_path)

        from repro.cli import main as repro_main
        from repro.exec import MitigationSpec, ResultCache, SweepPoint, SweepRunner
        from repro.obs.reportgen import validate_report_file

        points = [
            SweepPoint(
                workload=workload,
                mitigation=MitigationSpec.none(),
                scale=32,
                records_per_core=500,
                cores=2,
                seed=seed,
            )
            for workload in ("stream", "hmmer")
            for seed in (0, 1)
        ]
        results = {}
        for jobs in (1, 2):
            runner = SweepRunner(
                jobs=jobs,
                cache=ResultCache(root=Path(scratch) / f"cache-jobs{jobs}"),
                progress=True,
            )
            results[jobs] = runner.run(points, label=f"report-smoke-j{jobs}")
            print(
                f"report-smoke: swept {runner.stats.points} points "
                f"(jobs={jobs}, {runner.stats.simulated} simulated)"
            )
        if results[2] != results[1]:
            print(
                "report-smoke: jobs=2 results differ from jobs=1 results",
                file=sys.stderr,
            )
            return 1

        code = repro_main(
            [
                "report",
                "--out",
                str(out),
                "--bench-dir",
                str(REPO_ROOT / "benchmarks" / "results"),
                "--title",
                "repro report smoke",
            ]
        )
        if code != 0:
            print(f"report-smoke: `repro report` exited {code}", file=sys.stderr)
            return code

        payload = validate_report_file(out)
        expected = len(points) * len(results)
        if len(payload["entries"]) != expected:
            print(
                f"report-smoke: expected {expected} ledger entries in the "
                f"payload, found {len(payload['entries'])}",
                file=sys.stderr,
            )
            return 1
        print(
            f"report-smoke: OK — {out} validated "
            f"({len(payload['entries'])} entries, schema "
            f"v{payload['schema_version']})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
