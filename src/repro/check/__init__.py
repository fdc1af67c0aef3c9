"""Static and runtime analysis guarding the reproduction's invariants.

Three pillars, surfaced through ``python -m repro check``:

* :mod:`repro.check.linter` — an AST determinism linter with
  project-specific rules (RRS001...): every simulation result must be a
  pure function of its :class:`~repro.exec.runner.SweepPoint`, so any
  entropy, wall-clock, or ordering hazard inside the simulation
  packages is flagged unless it flows through
  :class:`repro.utils.rng.DeterministicRng`.
* :mod:`repro.check.sanitizer` — an opt-in (``REPRO_SANITIZE=1``)
  runtime DDR4 protocol checker hooked into the banks' command streams
  plus an RRS swap-machinery auditor, raising a structured
  :class:`~repro.check.sanitizer.ProtocolViolation` on the first break.
* :mod:`repro.check.salt` — the cache-salt drift detector: the
  ``CACHE_SALT`` policy of :mod:`repro.exec.cache` enforced by hashing
  every simulation-relevant source file against a committed manifest.

Plus the interprocedural flow engine (``--flow``), three passes over a
shared :class:`~repro.check.callgraph.ProjectGraph`:

* :mod:`repro.check.entropy` — RNG provenance dataflow (FLW001-003):
  every ``numpy.random.Generator`` reaching simulation state must be
  derived from the seeded root, never consumed in unordered iteration,
  and handed across modules explicitly.
* :mod:`repro.check.oracle` — scalar-oracle/batched-kernel pair
  registry and drift detection (ORA001-003) against the committed
  ``oracle_manifest.json``.
* :mod:`repro.check.hotpath` — advisory allocation lint (HOT001-003)
  over everything reachable from the batched activation path,
  baselined in ``flow_baseline.json``.

The package ``__init__`` imports nothing up front (PEP 562): each name
below loads its pillar on first access, so a run that only needs the
sanitizer (``import repro.check.sanitizer``) never pays for the linter,
call graph, oracle, salt, hot-path or entropy modules.
"""

from __future__ import annotations

import importlib
from typing import Any

# Public name -> the submodule that defines it.
_EXPORTS = {
    "ProjectGraph": "callgraph",
    "check_entropy": "entropy",
    "Finding": "findings",
    "Reporter": "findings",
    "RULES": "findings",
    "SEVERITIES": "findings",
    "apply_suppressions": "findings",
    "error_count": "findings",
    "rule_severity": "findings",
    "severity_counts": "findings",
    "sort_findings": "findings",
    "check_hotpath": "hotpath",
    "load_baseline": "hotpath",
    "write_baseline": "hotpath",
    "check_oracles": "oracle",
    "discover_pairs": "oracle",
    "write_oracle_manifest": "oracle",
    "DeterminismLinter": "linter",
    "lint_paths": "linter",
    "lint_tree": "linter",
    "SaltDrift": "salt",
    "check_salt": "salt",
    "compute_manifest": "salt",
    "simulation_relevant_files": "salt",
    "write_manifest": "salt",
    "BankCommandChecker": "sanitizer",
    "ProtocolSanitizer": "sanitizer",
    "ProtocolViolation": "sanitizer",
    "audit_rit": "sanitizer",
    "sanitize_enabled": "sanitizer",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = sorted(_EXPORTS)
