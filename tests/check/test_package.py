"""The ``repro.check`` package loads its pillars lazily (PEP 562)."""

from __future__ import annotations

import json
import subprocess
import sys

import repro.check

HEAVY_PILLARS = ("linter", "callgraph", "oracle", "salt", "hotpath", "entropy")


def test_sanitizer_import_loads_no_other_pillar():
    """``import repro.check.sanitizer`` (every REPRO_SANITIZE=1 run)
    must not import the linter or the flow engine."""
    script = (
        "import json, sys\n"
        "import repro.check.sanitizer\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('repro.check'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    loaded = json.loads(result.stdout)
    assert loaded == ["repro.check", "repro.check.sanitizer"]
    for pillar in HEAVY_PILLARS:
        assert f"repro.check.{pillar}" not in loaded


def test_every_exported_name_resolves():
    for name in repro.check.__all__:
        assert getattr(repro.check, name) is not None
