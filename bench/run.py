"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload {train,eval,infer} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the workload untraced and then traced and prints the per-layer metrics.
The last line of stdout is the JSON result; a fuller record (environment,
tail percentile, set-up times, self time per span name) goes to
``.bench_out/`` under the repository root, and the traced spans beside it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from spans import NAME, Instrumentation, Recorder, self_times_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("train", "eval", "infer")
SETUPS = 5  # set-ups per phase; setup_s is their median
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile
# Percentiles above p90 are set by the few seconds in a run when a shared
# host stalls this machine, and they vary from run to run by more than any
# usable bound; p90 moves with the rest of the distribution.
TAIL_MAX_PCT = 90

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class Phase:
    workload: object = None  # the first set-up; its warm-up op is checked against the shadow
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    failed: int = 0


def run_phase(cls, seed: int, seconds: float, workdir: Path, hooks=None) -> Phase:
    """``SETUPS`` rounds, each a fresh set-up followed by ops for an equal share
    of ``seconds``. Spreading the set-ups over the run keeps one slow stretch
    of a shared machine from deciding their median."""
    rec = hooks.rec if hooks is not None else None

    def span(name):
        return rec.span(name) if rec is not None else nullcontext()

    phase = Phase()
    for k in range(SETUPS):
        wl = cls(seed, workdir / f"{cls.name}-{'traced' if rec else 'plain'}-{k}", hooks)
        t0 = time.perf_counter()
        with span("bench.setup"):
            wl.setup()
        phase.setup_s.append(time.perf_counter() - t0)
        phase.workload = phase.workload or wl

        start = time.perf_counter()
        deadline = start + seconds / SETUPS
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            try:
                with span("bench.op"):
                    out = wl.op(i)
                t1 = time.perf_counter()
                ok = wl.check(out)
            except Exception:  # a failing op is counted, and the run goes on
                t1 = time.perf_counter()
                if phase.failed == 0:
                    traceback.print_exc()
                ok = False
            phase.op_s.append(t1 - t0)
            phase.failed += not ok
            i += 1
        phase.wall_s += time.perf_counter() - start
    return phase


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the op time at the highest percentile, at most
    ``TAIL_MAX_PCT``, that leaves ``TAIL_BEYOND`` ops above it; the fastest op
    when a run holds fewer ops than that."""
    s = sorted(times)
    k = min(math.ceil(len(s) * TAIL_MAX_PCT / 100) - 1, len(s) - TAIL_BEYOND - 1)
    k = max(k, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(phase: Phase, attempted: int, failed: int, peak_rss_mb: float) -> dict[str, float]:
    wl = phase.workload
    return {
        "items_per_s": wl.items_per_op * len(phase.op_s) / phase.wall_s,
        "op_ms_p50": 1e3 * statistics.median(phase.op_s),
        "op_ms_tail": 1e3 * tail(phase.op_s)[0],
        "setup_s": statistics.median(phase.setup_s),
        "peak_rss_mb": peak_rss_mb,
        "ok_share": 1.0 - failed / attempted,
    }


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 only prints its config
        return "unknown"


def git_commit() -> str | None:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    return {
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def self_time_table(spans) -> dict[str, dict[str, float]]:
    table = defaultdict(lambda: {"calls": 0, "self_ms": 0.0})
    for s, ns in zip(spans, self_times_ns(spans)):
        row = table[s[NAME]]
        row["calls"] += 1
        row["self_ms"] += ns / 1e6
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "guidedepth" / "__init__.py").is_file():
        print(f"error: no guidedepth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import guidedepth

    if Path(guidedepth.__file__).resolve().parent != SRC / "guidedepth":
        print(f"error: imported guidedepth from {guidedepth.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import layers
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    stem = f"{args.workload}-seed{args.seed}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    try:
        plain = run_phase(cls, args.seed, args.seconds, workdir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = plain.workload.check_first()
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        attempted = 1 + len(plain.op_s)
        failed = int(bool(problems)) + plain.failed
        metrics = end_to_end(plain, attempted, failed, peak_rss_mb)
        units = END_TO_END_UNITS
        tail_pct = tail(plain.op_s)[1]
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "environment": environment(),
            "end_to_end": metrics,
            "op_ms_tail_percentile": tail_pct,
            "setup_s_each": plain.setup_s,
            "op_ms_each": [1e3 * t for t in plain.op_s],
        }
        if args.trace:
            rec = Recorder()
            with Instrumentation(rec) as hooks:
                traced = run_phase(cls, args.seed, args.seconds, workdir, hooks)
            attempted += len(traced.op_s)
            failed += traced.failed
            metrics = layers.per_layer(rec.spans, layers.replay_conv_backward(layers.conv_signatures(rec.spans)))
            metrics["bench.trace_overhead_share"] = statistics.median(traced.op_s) / statistics.median(plain.op_s) - 1
            units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
            rec.write_jsonl(OUT / f"{stem}.spans.jsonl")
            record.update(per_layer=metrics, traced_ops=len(traced.op_s), self_ms_by_span=self_time_table(rec.spans))
        record.update(attempted=attempted, failed=failed)
        (OUT / f"{stem}.trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload}: seed {args.seed}, {len(plain.op_s)} timed ops, {failed} of {attempted} failed")
    for name, value in metrics.items():
        extra = f"  (p{tail_pct:.1f} of {len(plain.op_s)} ops)" if name == "op_ms_tail" else ""
        print(f"  {name} = {value:.6g} {units[name]}{extra}")
    print("environment: " + json.dumps(record["environment"]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
