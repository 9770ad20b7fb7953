"""Closed-loop measurement of one workload: end-to-end run or traced per-layer run.

One client runs ops back to back in this process: the next op starts once
the previous op and its output check are done.  The phase clock runs only
while an op runs, so building inputs and checking outputs cost no measured
time.  A phase stops before an op that would, at the median op time so far,
end past ``seconds``; it always runs at least one op.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_RUNS = 7

_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import qpd3, qpd3.cli\n"
    "t1 = time.perf_counter()\n"
    "qpd3.cli.build_parser()\n"
    "print(t1 - t0, qpd3.__file__)\n"
)


def measure_setup(runs: int) -> tuple[float, float]:
    """Median wall time of a fresh ``import qpd3, qpd3.cli; build_parser()``, and of its import."""
    walls, imports = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        walls.append(time.perf_counter() - t0)
        import_s, origin = proc.stdout.split(maxsplit=1)
        if not Path(origin.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported qpd3 from {origin.strip()}, not {SRC}")
        imports.append(float(import_s))
    return statistics.median(walls), statistics.median(imports)


@dataclass
class Phase:
    times: list[float] = field(default_factory=list)
    fingerprints: list[str] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def run_phase(workload, seconds: float, inputs: list | None = None) -> Phase:
    """Run ops until ``seconds`` of op time are spent, or over ``inputs`` if given."""
    phase = Phase()
    i = 0
    while True:
        if inputs is not None:
            if i == len(inputs):
                break
        elif phase.times and sum(phase.times) + statistics.median(phase.times) > seconds:
            break
        inp = workload.inputs(i) if inputs is None else inputs[i]
        t0 = time.perf_counter()
        try:
            out = workload.op(inp)
        except Exception:  # an op that raises is a failed op; keep measuring
            phase.times.append(time.perf_counter() - t0)
            phase.fingerprints.append("raised")
            phase.failed += 1
            phase.errors.append(f"op {i}: {traceback.format_exc(limit=3)}")
            i += 1
            continue
        phase.times.append(time.perf_counter() - t0)
        phase.fingerprints.append(workload.fingerprint(out))
        errors = workload.check(inp, out)
        if errors:
            phase.failed += 1
            phase.errors += [f"op {i}: {e}" for e in errors]
        i += 1
    return phase


def tail(times: list[float]) -> tuple[float, float]:
    """The op time with ten ops beyond it, and its percentile.

    With fewer than 11 ops no op time has ten beyond it; the fastest op, the
    one with the most ops beyond it, is reported, with its percentile.
    """
    ordered = sorted(times)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _blas_threads() -> int | None:
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_size(level: int) -> str | None:
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        if _read(f"{index}/level") == str(level) and _read(f"{index}/type") in ("Unified", "Data"):
            return _read(f"{index}/size")
    return None


def _git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(str(ROOT / ".git" / ref))
    if commit:
        return commit
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def machine(load_before: tuple[float, ...]) -> dict:
    """The machine and software a result was measured on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_per_core": _cache_size(2),
        "l3": _cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ
        },
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "git_commit": _git_commit(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def measure(name: str, seed: int, seconds: float, trace: bool, setup_runs: int = SETUP_RUNS):
    """Run one workload.

    Returns the result object, the summary lines, the check errors, the
    machine record and, for a traced run, the tracer holding the spans.
    """
    load_before = os.getloadavg()
    setup_s, import_s = measure_setup(setup_runs)
    workload = WORKLOADS[name](seed)
    lines = [f"workload {name}  seed {seed}  closed loop, 1 client, {seconds:g} s"]

    if not trace:
        phase = run_phase(workload, seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        n = len(phase.times)
        tail_s, tail_pct = tail(phase.times)
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "op_p50_s": _metric(statistics.median(phase.times), "s"),
            "ops_per_s": _metric(n / sum(phase.times), "1/s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
        }
        notes = {
            "setup_s": f"median of {setup_runs} fresh interpreters",
            "op_p50_s": f"median of {n} ops",
            "ops_per_s": f"{n} ops in {sum(phase.times):.3f} s of op time",
        }
        # Printed but not in the result; README.md says why.
        unlisted = [
            ("op_tail_s", tail_s, "s", f"p{tail_pct:.1f} of {n} ops"
             + ("" if n > 10 else "; under 11 ops, so the fastest op")),
        ]
        phases, tracer, errors = [phase], None, []
    else:
        untraced = run_phase(workload, seconds / 2)
        inputs = [workload.inputs(i) for i in range(len(untraced.times))]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, 0.0, inputs)
        finally:
            tracer.uninstall()
        errors = [f"still wrapped after the run: {b}" for b in tracer.leftovers()]
        for i, (a, b) in enumerate(zip(untraced.fingerprints, traced.fingerprints)):
            if a != b:
                traced.failed += 1
                traced.errors.append(f"op {i}: traced output differs from untraced output")
        n = len(traced.times)
        layers = tracer.layer_metrics(n, traced.times)
        layers["cli.import_s"] = (import_s, "s")
        layers["trace.overhead_frac"] = (
            statistics.median(traced.times) / statistics.median(untraced.times) - 1.0,
            "fraction",
        )
        metrics = {k: _metric(v, unit) for k, (v, unit) in sorted(layers.items())}
        notes = {
            "trace.coverage": f"span time over {sum(traced.times):.3f} s of traced op time",
            "trace.overhead_frac": f"traced median {statistics.median(traced.times):.4f} s over "
            f"untraced median {statistics.median(untraced.times):.4f} s",
            "cli.import_s": f"median of {setup_runs} fresh interpreters",
        }
        phases = [untraced, traced]
        unlisted = []

    attempted = sum(len(p.times) for p in phases)
    failed = sum(p.failed for p in phases)
    errors += [e for p in phases for e in p.errors]
    for key, m in metrics.items():
        note = notes.get(key, "")
        per_op = f"over {n} traced ops" if trace and m["unit"].endswith("/op") else ""
        lines.append(f"  {key:<44} {m['value']:>14.6g} {m['unit']:<13} {note or per_op}")
    unlisted.append(("failed_frac", failed / attempted, "fraction",
                     f"{failed} of {attempted} ops failed a check"))
    for key, value, unit, note in unlisted:
        lines.append(f"  {key:<44} {value:>14.6g} {unit:<13} {note}")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines, errors, machine(load_before), tracer


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    result, lines, errors, record, tracer = measure(workload, seed, seconds, trace)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump({"result": result, "summary": lines, "errors": errors, "machine": record}, f,
                  indent=2)
    if tracer is not None:
        tracer.save(OUT / f"spans-{workload}.npz")
    for line in lines:
        print(line)
    for e in errors[:20]:
        print(f"  error: {e}", file=sys.stderr)
    print("machine " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0
