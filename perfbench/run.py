#!/usr/bin/env python3
"""Repository benchmark: host time of the RRS simulator, end to end and
per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig6-sweep --seed 0 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/METRICS.md``):
``fig6-sweep``, ``defense-compare``, ``attack-campaign`` and
``observed-sweep``. With ``--trace 0`` the run times whole repetitions
of the workload (at least two, more while they fit in ``--seconds``)
and reports the end-to-end metrics from each point's fastest
repetition; set-up time is the median of several fresh processes
timed from start to their first simulated request. With ``--trace 1``
it runs the workload once untraced and once with per-layer spans,
replays the first unit's stream through the decode and controller
layers, and reports the per-layer metrics.

Every simulated output is checked: digests must equal the committed
golden digests for the default seed, and every seed must pass the
workload invariants (see ``suite.check_units``). Human-readable lines
come first; the last line of standard output is one JSON object.

``--update-golden`` re-records the default seed's digests for one
workload after a change that is meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 0
SETUP_PROBES = 5

import hostspeed  # noqa: E402  (sibling modules of this script)
import layers  # noqa: E402
import suite  # noqa: E402


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true")
    # Internal: one set-up probe process (see _setup_seconds).
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _metric_units(kind: str) -> Dict[str, str]:
    with open(SPEC) as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[kind]}


def _golden(workload: str):
    with open(GOLDEN) as handle:
        data = json.load(handle)
    if data["seed"] != DEFAULT_SEED:
        raise ValueError("golden.json was recorded for another seed")
    return data["digests"][workload]


# ----------------------------------------------------------------------
# Set-up time: fresh processes, start to first simulated request
# ----------------------------------------------------------------------
def _probe(args) -> int:
    """Run the workload until its first simulated request, then exit."""

    sampler = hostspeed.SpeedSampler()

    def ready(*_args, **_kwargs):
        sampler.stop()
        sys.stdout.write(f"ready {sampler.factor(0)!r}\n")
        sys.stdout.flush()
        os._exit(0)

    if args.workload == "attack-campaign":
        from repro.attacks.base import AttackHarness as first_request
    else:
        from repro.mem.system import SystemSimulator as first_request
    first_request.run = ready
    sampler.start()
    suite.run_repetition(args.workload, args.seed, Path(args.scratch))
    print("error: the workload finished without simulating", file=sys.stderr)
    return 1


def _setup_seconds(args) -> List[float]:
    times = []
    for _ in range(SETUP_PROBES):
        OUT.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT))
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe", "--scratch", str(scratch),
        ]
        try:
            started = time.perf_counter()
            with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
                try:
                    line = proc.stdout.readline()
                    elapsed = time.perf_counter() - started
                    proc.communicate(timeout=120)
                except BaseException:
                    proc.kill()
                    raise
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        status, _, factor = line.partition(" ")
        if status != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed * float(factor))
    return times


# ----------------------------------------------------------------------
# Timed run (--trace 0)
# ----------------------------------------------------------------------
def _timed(args):
    setup = _setup_seconds(args)
    reps: List[suite.Repetition] = []
    factors: List[List[float]] = []
    sampler = hostspeed.SpeedSampler()

    def sampled(index, call):
        mark = sampler.mark()
        try:
            return call()
        finally:
            factors[-1].append(sampler.factor(mark))

    started = time.perf_counter()
    sampler.start()
    try:
        # At least two repetitions, so every point has a best of two.
        while True:
            factors.append([])
            reps.append(
                suite.run_repetition(args.workload, args.seed, OUT, unit_hook=sampled)
            )
            elapsed = time.perf_counter() - started
            if len(reps) >= 2 and elapsed + elapsed / len(reps) > args.seconds:
                break
    finally:
        sampler.stop()

    golden = _golden(args.workload) if args.seed == DEFAULT_SEED else None
    for rep in reps:
        suite.check_units(args.workload, rep.units, golden)
    errors = [error for rep in reps for error in rep.errors]
    suite.check_same_digests([rep.units for rep in reps], "repetitions")

    # Best of N over host-speed-rescaled point times (see hostspeed).
    n = len(reps[0].units)
    fastest = [
        min(rep.units[i].seconds * scale[i] for rep, scale in zip(reps, factors))
        for i in range(n)
    ]
    raw_fastest = [min(rep.units[i].seconds for rep in reps) for i in range(n)]
    wall_s = sum(fastest)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "sim_req_per_s": sum(u.requests for u in reps[0].units) / wall_s,
        "sim_act_per_s": sum(u.activations for u in reps[0].units) / wall_s,
        "point_s_p50": statistics.median(fastest),
        "point_s_max": max(fastest),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = [unit for rep in reps for unit in rep.units]
    failed = sum(unit.failed for unit in units)
    extras = {
        "failed_frac": (failed / len(units), "fraction"),
        "raw_wall_s": (sum(raw_fastest), "s"),
        "raw_point_s_max": (max(raw_fastest), "s"),
    }
    if args.workload == "observed-sweep":
        first = reps[0]
        requests = sum(u.requests for u in first.units)
        extras["trace_bytes_per_req"] = (sum(u.trace_bytes for u in first.units) / requests, "B")
        extras["ckpt_mb"] = (first.checkpoint_bytes / 1e6, "MB")

    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} repetition(s) "
          f"of {n} point(s); set-up from {len(setup)} processes")
    _report(metrics, _metric_units("end_to_end"), extras, units, errors)
    return _result(metrics, "end_to_end", units, errors)


# ----------------------------------------------------------------------
# Traced run (--trace 1)
# ----------------------------------------------------------------------
def _traced(args):
    workload = args.workload
    plain = suite.run_repetition(workload, args.seed, OUT)
    sweep = workload != "attack-campaign"
    tracer = layers.LayerTracer(capture_unit=0 if sweep else None)
    tracer.install()
    try:
        traced = suite.run_repetition(workload, args.seed, OUT, unit_hook=tracer.unit_hook)
    finally:
        tracer.uninstall()

    golden = _golden(workload) if args.seed == DEFAULT_SEED else None
    for rep in (plain, traced):
        suite.check_units(workload, rep.units, golden)
    errors = plain.errors + traced.errors
    suite.check_same_digests([plain.units, traced.units], "traced and untraced runs")

    units = traced.units
    metrics = tracer.metrics(traced.wall_s)
    metrics.update(layers.replay_stream(tracer.captured, suite.SCALE))
    if metrics["glue.residual_s"] < -1e-3:
        errors.append("layer self times exceed the traced wall time")
    requests = sum(u.requests for u in units)
    rrs = [u for u in units if u.defense == "rrs"]
    rrs_swaps = sum(u.swaps for u in rrs)
    rrs_acts = sum(u.activations for u in rrs)
    trace_bytes = sum(u.trace_bytes for u in units)
    metrics.update({
        "mem.controller.activations": sum(u.activations for u in units) if sweep else 0,
        "mem.controller.row_hit_ratio": sum(u.row_hits for u in units) / requests if sweep else 0.0,
        "dram.refresh.windows": sum(u.windows for u in units),
        "core.rrs.swaps": rrs_swaps,
        "core.rrs.swaps_per_kact": rrs_swaps / (rrs_acts / 1000.0) if rrs_acts else 0.0,
        "dram.faults.flips": sum(u.flips for u in units),
        "obs.bytes": trace_bytes,
        "obs.trace_bytes_per_req": trace_bytes / requests,
        "state.bytes": traced.checkpoint_bytes,
        "state.ckpt_mb": traced.checkpoint_bytes / 1e6,
        "trace.wall_s": traced.wall_s,
        "trace.overhead": traced.wall_s / plain.wall_s,
    })
    tracer.recorder.write(OUT / "spans" / f"{workload}.npz")

    print(f"workload {workload}, seed {args.seed}: traced run of {len(units)} point(s); "
          f"{len(tracer.recorder.sid)} spans in .bench_out/spans/{workload}.npz")
    _report(metrics, _metric_units("per_layer"), {}, plain.units + units, errors)
    return _result(metrics, "per_layer", plain.units + units, errors)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _report(metrics, units_of, extras, units, errors) -> None:
    for name, unit in units_of.items():
        print(f"  {name:36s} {metrics[name]:>16.6g} {unit}")
    for name, (value, unit) in extras.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")
    for unit in units:
        status = "FAILED " + "; ".join(filter(None, [unit.error] + unit.errors)) if unit.failed else "ok"
        print(f"  point {unit.label:28s} {unit.seconds:9.3f} s  {status}")
    for error in errors:
        print(f"  check failed: {error}")


def _result(metrics, kind: str, units, errors) -> dict:
    failed = sum(unit.failed for unit in units)
    return {
        "correct": failed == 0 and not errors,
        "attempted": len(units),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in _metric_units(kind).items()
        },
    }


def _update_golden(args) -> int:
    rep = suite.run_repetition(args.workload, DEFAULT_SEED, OUT)
    suite.check_units(args.workload, rep.units, None)
    if rep.errors or any(unit.failed for unit in rep.units):
        print("error: a check failed; golden digests not updated", file=sys.stderr)
        return 1
    data = {"seed": DEFAULT_SEED, "digests": {}}
    if GOLDEN.exists():
        with open(GOLDEN) as handle:
            data = json.load(handle)
    data["digests"][args.workload] = {unit.label: unit.digest for unit in rep.units}
    with open(GOLDEN, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(rep.units)} golden digest(s) for {args.workload}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    # Run under the simulator's defaults, whatever the caller's shell sets.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return _probe(args)
    OUT.mkdir(exist_ok=True)
    if args.update_golden:
        return _update_golden(args)
    result = _traced(args) if args.trace else _timed(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
