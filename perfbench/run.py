"""qdiff benchmark: one closed-loop client running one workload's ops back to back.

Run from the repository root:

    python3 perfbench/run.py --workload weak-ensembles --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole ops with tracing off and reports the end-to-end
metrics. ``--trace 1`` alternates untraced and traced ops, reports the
per-layer metrics from the traced ones and the tracing overhead, and
writes the spans to ``.perfbench/``. The ops cycle through the seed's
input variants; a traced run takes each variant twice in a row, once
untraced and once traced. Every op is checked; a failed check
counts in ``failed`` and is never dropped. ``setup_s`` is the median of
whole cold set-ups (imports, input generation and one warm-up op): this
process's own and those of fresh child processes started with
``--setup-only``. The last line of standard output is the result object;
the line before it carries the details (machine facts, sample counts,
stage times, failures).
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# Set-ups per run: this process plus fresh child processes, each one cold.
COLD_SETUPS = 3
END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import qdiff from this checkout's sources, never from anywhere else."""
    if not (SRC / "qdiff" / "__init__.py").is_file():
        raise SystemExit(f"error: qdiff sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdiff

    if Path(qdiff.__file__).resolve().parent != (SRC / "qdiff").resolve():
        raise SystemExit(f"error: imported qdiff from {qdiff.__file__}, not from {SRC}")


def _disk_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def machine_facts() -> dict:
    """Facts the timings depend on; the BLAS thread count is read, not set."""
    import ctypes

    import numpy
    import scipy

    blas_threads = None
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        with contextlib.suppress(OSError, AttributeError):
            blas_threads = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": blas_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _median_dict(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}


def set_up(workload, seed: int, work: Path):
    """Input generation plus one warm-up op at the workload's tiny size.

    Returns the input variants and the warm-up's failure, if any: the
    warm-up only loads code paths and fills caches, and the measured ops
    are checked.
    """
    inputs = workload.prepare(work / "inputs", seed)
    tiny = workload.tiny()
    failure = None
    try:
        tiny.op(tiny.prepare(work / "warm-up-inputs", seed)[0], work / "warm-up")
    except Exception as exc:
        failure = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(work / "warm-up", ignore_errors=True)
    shutil.rmtree(work / "warm-up-inputs", ignore_errors=True)
    return inputs, failure


def cold_set_up(workload_name: str, seed: int) -> dict:
    """Time one whole set-up, imports included, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--seconds", "1", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload, inputs, seed: int, seconds: float, trace: bool, work: Path,
        setups: list[dict]) -> tuple[dict, dict]:
    """Run ops until ``seconds`` have passed; returns (result, details)."""
    from tracing import LAYER_METRICS, Tracer

    setup_s = [s["setup_s"] for s in setups]
    tracer = Tracer()
    ops: list[dict] = []
    references = {}  # variant -> first passing outcome on it
    t_start = time.perf_counter()
    while True:
        i = len(ops)
        variant = (i // 2 if trace else i) % len(inputs)
        traced = trace and i % 2 == 1
        tracer.op = i
        out = work / f"op-{i}"
        t0 = time.perf_counter()
        try:
            with tracer.instrument() if traced else contextlib.nullcontext():
                outcome = workload.op(inputs[variant], out)
            wall = time.perf_counter() - t0
            failures = workload.check(outcome, references.get(variant))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            wall = time.perf_counter() - t0
            outcome, failures = None, [f"{type(exc).__name__}: {exc}"]
        disk = _disk_bytes(out) if out.exists() else 0
        shutil.rmtree(out, ignore_errors=True)
        if variant not in references and not failures:
            references[variant] = outcome
        ops.append({"wall": wall, "traced": traced, "outcome": outcome,
                    "failures": failures, "disk": disk})
        if time.perf_counter() - t_start >= seconds and (not trace or any(o["traced"] for o in ops)):
            break

    failed = sum(1 for o in ops if o["failures"])
    plain = [o for o in ops if not o["traced"]]
    details = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": len(ops),
        "variants": len(inputs),
        "failed_frac": failed / len(ops),
        "samples": {"op_s": len(plain), "setup_s": len(setup_s),
                    "per_layer": len(ops) - len(plain)},
        "setup_s_each": setup_s,
        "op_s_each": [o["wall"] for o in plain],
        "stage_s": _median_dict([o["outcome"].stage_s for o in plain if o["outcome"]]),
        "values": _median_dict([o["outcome"].values for o in ops if o["outcome"]]),
        "failures": sorted({f for o in ops for f in o["failures"]})[:10],
        "warm_up_failures": [s["warm_up_failure"] for s in setups if s["warm_up_failure"]],
        "machine": machine_facts(),
    }
    if trace:
        traced_ops = [o for o in ops if o["traced"]]
        rows = [tracer.op_metrics(i) for i, o in enumerate(ops) if o["traced"]]
        layer = dict.fromkeys(LAYER_METRICS, 0.0)
        layer.update(_median_dict(rows))
        layer.update(_median_dict([workload.errors(o["outcome"]) for o in traced_ops if o["outcome"]]))
        layer["cli.disk_mb"] = statistics.median(o["disk"] for o in traced_ops) / 1e6
        layer["trace.overhead_s"] = (statistics.median(o["wall"] for o in traced_ops)
                                     - statistics.median(o["wall"] for o in plain))
        metrics = {k: {"value": layer[k], "unit": u} for k, u in LAYER_METRICS.items()}
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
        tracer.write(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = {
            "op_s": statistics.median(o["wall"] for o in ops),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return result, details


def main(argv=None, workloads=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    if workloads is None:
        from workloads import WORKLOADS as workloads

    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        workload = workloads[args.workload]
        inputs, failure = set_up(workload, args.seed, work)
        setups = [{"setup_s": time.perf_counter() - t_start, "warm_up_failure": failure}]
        if args.setup_only:
            print(json.dumps(setups[0]))
            return 0
        if not args.trace:
            setups += [cold_set_up(args.workload, args.seed) for _ in range(COLD_SETUPS - 1)]
        result, details = run(workload, inputs, args.seed, args.seconds, bool(args.trace),
                              work, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
