#!/usr/bin/env python3
"""Benchmark of emocnn: train, serve and predict_cold workloads.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the workload and prints its end-to-end metrics.
``--trace 1`` runs it with spans around the calls into ``emocnn``, then the
per-layer probe, and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload, each in its own process.

Run it from the root of a source checkout: the program is imported from
``src/``, never from an installed copy. Raw per-run records and span files
go to ``.perfbench_runs/`` under that root.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
WORKLOADS = ("train", "serve", "predict_cold")
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "latency_ms": "ms", "examples_per_s": "examples/s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_environment() -> dict:
    """Pin BLAS threads to the usable cores and put ``src`` first on the
    import path, for this process and every child it starts. BLAS reads its
    thread count once, when numpy is first imported, so this runs first."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path[:0] = [str(SRC), str(HERE)]
    return dict(os.environ)


def _openblas_threads():
    """Thread count OpenBLAS reports at run time, if it is the BLAS loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_ticks():
    """(steal, total) ticks of all CPUs. On a shared virtual machine, steal
    is time the host ran someone else; it shows up as noise in wall time."""
    with open("/proc/stat", encoding="utf-8") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def measure(name: str, seed: int, seconds: float, trace: bool, env: dict):
    """One run of one workload: (result, raw record, summary lines, tracer)."""
    import probe
    import selftest
    import tracing
    import workloads

    oracle_checks = selftest.run()
    if name == "predict_cold":
        workload = workloads.PredictCold(ROOT, env)
    else:
        workload = workloads.Train() if name == "train" else workloads.Serve()
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(seed, workdir)
            setup_s.append(time.perf_counter() - t0)
        tracer = tracing.Tracer() if trace else tracing.NullTracer()
        attempted = failed = 0
        with contextlib.ExitStack() as stack:
            if trace:
                for module, names in workload.traced_modules():
                    stack.enter_context(tracer.patch(module, names))
            ticks = cpu_ticks()
            start = time.perf_counter()
            while True:
                with tracer.span(f"{name}.round"):
                    tried, lost = workload.round(tracer)
                attempted, failed = attempted + tried, failed + lost
                if time.perf_counter() - start >= seconds:
                    break
            measured_s = time.perf_counter() - start
            steal, total = (after - before for before, after in zip(ticks, cpu_ticks()))
            steal_share = steal / max(total, 1)
        e2e, named = workload.results()
        e2e["setup_s"] = sorted(setup_s)[len(setup_s) // 2]
        e2e["peak_rss_mb"] = workload.peak_rss_mb()
        checks = [("oracle_selftest", True, f"{oracle_checks} checks")]
        checks += [(n, bool(ok), detail) for n, ok, detail in workload.checks()]
        per_layer = probe.run(tracer, seed, workdir, ROOT, env) if trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    layer_metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    result = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": layer_metrics if trace else end_to_end,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "setup_s": setup_s, "measured_s": measured_s,
        "cpu_steal_share": steal_share, "attempted": attempted, "failed": failed,
        "end_to_end": end_to_end,
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
        "per_layer": layer_metrics,
        "samples": workload.samples(),
    }
    env_rec = record["environment"]
    lines = [
        f"environment: python {env_rec['python']}, numpy {env_rec['numpy']}, {env_rec['blas']}, "
        f"nproc {env_rec['nproc']}, BLAS threads {env_rec['blas_threads']}",
        f"{name}: seed {seed}, {attempted} operations attempted, {failed} failed, {measured_s:.1f} s measured, "
        f"CPU steal {steal_share:.1%}"
        + (" (traced)" if trace else ""),
    ]
    lines += [f"  {k} {e2e[k]:.6g} {u}" for k, u in END_TO_END.items()]
    lines += [f"  {k} {v:.6g} {u}" for k, (v, u) in named.items()]
    lines += [f"  check {n}: {'ok' if ok else 'FAILED'} ({d})" for n, ok, d in checks]
    if trace:
        lines += [f"  {k} {v:.6g} {u}" for k, (v, u) in per_layer.items()]
    return result, record, lines, tracer


def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "emocnn" / "__init__.py").is_file():
        print(f"perfbench: no emocnn sources under {SRC}", file=sys.stderr)
        return 2
    env = pin_environment()
    if args.workload == "all":
        return run_all(args)
    result, record, lines, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace), env)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record["spans_file"] = str(stem.with_suffix(".spans.jsonl").relative_to(ROOT))
        tracer.write(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
