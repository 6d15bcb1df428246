#!/usr/bin/env python3
"""Benchmark of the substochastic CLI: one closed-loop client, in-process.

    python3 perfbench/run.py --workload cascade --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout.  Set-up (imports, model files,
warm-up) is timed on its own; then whole passes of the workload's CLI
operations run back to back, each starting after the previous one returns,
until the next pass would overrun ``--seconds`` (at least one pass runs).
Every operation's output is checked against an exact oracle.  With
``--trace 0`` the last line of standard output is the JSON result with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
traced passes.  A line before it records the environment and the
quantities that are not metrics; the same record and all spans are written
under ``perfbench/_out/``.
"""

import os
import time

T_START = time.perf_counter()

# numpy links a threaded OpenBLAS, which DPState's matmuls use; the pin must
# be set before numpy is first imported.  One thread is <= nproc everywhere.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# name, unit of the metrics printed with --trace 0
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("width_max", "1"))
P90_MIN_SAMPLES = 100
# A traced run repeats a pass shorter than this even past --seconds, so that
# it can compare the work counters of two passes.
REPEAT_PASS_MAX_S = 30.0


def latency_summary(samples: list[float]) -> dict:
    """Median and, only with at least ten samples beyond it, the 90th
    percentile of operation latencies, with the sample count."""
    n = len(samples)
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8] if n >= P90_MIN_SAMPLES else None
    return {"p50": statistics.median(samples), "p90": p90, "n": n}


def environment(numpy) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_effective": _blas_threads(numpy),
    }


def _blas_threads(numpy) -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Bench:
    """One workload's model files, operations and passes of CLI calls."""

    def __init__(self, name: str, seed: int, workdir: Path):
        from substochastic import cli, honesty, zoo
        from substochastic.models import dump_model

        self.name, self.seed, self.workdir = name, seed, workdir
        self.cli, self.honesty = cli, honesty
        self._zoo = {m.name: m for m in zoo.zoo_models()}
        self._dump_model = dump_model

    def setup(self):
        """Write the workload's model files, build its operations and warm up
        with one verdict per model; returns the workload."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.model_paths, model_json = {}, {}
        for name, m in self._zoo.items():
            path = self.workdir / f"{name}.model.json"
            self._dump_model(m, str(path))
            self.model_paths[name] = str(path)
            model_json[name] = json.loads(path.read_text(encoding="utf-8"))
        wl = workloads.BUILDERS[self.name](self.seed, model_json)
        for name in wl.models:
            rc = self.cli.main(["verdict", "--model", self.model_paths[name], "--out", str(self.workdir / "warm.json")])
            if rc not in (0, 10, 20):
                raise RuntimeError(f"warm-up verdict on {name} exited {rc}")
        return wl

    def run_pass(self, ops):
        """All operations once; returns (wall, latencies, [(rc, text)])."""
        lat, outputs = [], []
        out = self.workdir / "op.out"
        t0 = time.perf_counter()
        for op in ops:
            argv = [op.command, "--model", self.model_paths[op.model], *op.args, "--out", str(out)]
            if out.exists():
                out.unlink()
            s = time.perf_counter()
            rc = self.cli.main(argv)
            lat.append(time.perf_counter() - s)
            outputs.append((rc, out.read_text(encoding="utf-8") if out.exists() else ""))
        return time.perf_counter() - t0, lat, outputs

    def traced_pass(self, ops):
        tracer = tracing.Tracer()
        with tracer.installed(layers.targets(self.cli, self.honesty)):
            wall, lat, outputs = self.run_pass(ops)
        return wall, lat, outputs, tracer.spans


def run(args) -> tuple[dict, dict]:
    """Returns (final result line, record of the run)."""
    import numpy

    bench = Bench(args.workload, args.seed, HERE / "_work" / f"{args.workload}-{os.getpid()}")
    import_s = time.perf_counter() - T_START
    try:
        reps = []
        for _ in range(SETUP_REPEATS):
            s = time.perf_counter()
            wl = bench.setup()
            reps.append(time.perf_counter() - s)
        setup_s = import_s + statistics.median(reps)
        return measure(bench, wl, args, setup_s, environment(numpy))
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)


def measure(bench: Bench, wl, args, setup_s: float, env: dict) -> tuple[dict, dict]:
    walls, latencies, passes, layer_runs, all_spans = [], [], [], [], []
    t0 = time.perf_counter()
    while True:
        if args.trace:
            wall, lat, outputs, spans = bench.traced_pass(wl.ops)
            stats = tracing.aggregate(spans)
            out_bytes = sum(len(text.encode()) for _, text in outputs)
            layer_runs.append((layers.layer_metrics(stats, out_bytes, wall, len(spans)), layers.evolve_ladder(stats)))
            all_spans.append(spans)
        else:
            wall, lat, outputs = bench.run_pass(wl.ops)
        walls.append(wall)
        latencies.extend(lat)
        passes.append(outputs)
        elapsed = time.perf_counter() - t0
        # a traced run compares the work counters of two passes whenever a
        # pass is short enough to repeat
        repeat_due = args.trace and len(walls) == 1 and wall < REPEAT_PASS_MAX_S
        if not repeat_due and elapsed + max(walls) > args.seconds:
            break

    failures, widths, oracle_err, failed, unaccounted = [], {}, 0.0, 0, []
    for outputs in passes:
        unaccounted.append(0)
        for i, (op, (rc, text)) in enumerate(zip(wl.ops, outputs)):
            c = op.check(rc, text)
            unaccounted[-1] += c.unaccounted
            if (rc, text) != passes[0][i]:
                c.failures.append("output differs from the first pass")
            for k, w in c.widths.items():
                widths[k] = max(widths.get(k, 0.0), w)
            oracle_err = max(oracle_err, c.oracle_err)
            if c.failures:
                failed += 1
                failures.extend(f"{op.command} {op.model} {' '.join(op.args)}: {f}" for f in c.failures)
    attempted = len(wl.ops) * len(passes)

    record = {
        "workload": wl.name,
        "seed": wl.seed,
        "trace": args.trace,
        "env": env,
        "passes": len(passes),
        "pass_walls_s": walls,
        "latency": latency_summary(latencies),
        "widths": widths,
        "oracle_err_max": oracle_err,
        "mc_unaccounted_paths_per_pass": unaccounted[0],
    }
    if args.trace == 0:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "width_max": max(widths.values(), default=0.0),
        }
        metrics = {k: (values[k], u) for k, u in END_TO_END}
    else:
        units = dict(layers.LAYER_METRICS)
        per_pass = [m for m, _ in layer_runs]
        counters = [{k: v for k, v in m.items() if units[k] in layers.DETERMINISTIC_UNITS} for m in per_pass]
        repeat = all(c == counters[0] for c in counters)
        if not repeat:
            failures.append("work counters differ between traced passes")
        if any(c["montecarlo.simulate.aborted"] != unaccounted[0] for c in counters):
            failures.append("paths missing from the CSV counts differ from simulate's aborted count")
        values = {**{k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}, **counters[0]}
        values["trace.overhead_s"] = values["trace.spans"] * tracing.span_cost()
        metrics = {k: (values[k], units[k]) for k, _ in layers.LAYER_METRICS}
        record["counters_repeat"] = repeat if len(counters) > 1 else "single traced pass"
        record["evolve_ladder"] = layer_runs[0][1]
        if wl.name == "cascade" and wl.seed == 0:
            record["baseline_ladder"] = baseline_ladder(layer_runs[0][1])
        _write_spans(wl, all_spans)
    record["failures"] = failures[:50]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


# ROADMAP baseline of the cascade hot path: (t, truncation N, Poisson steps
# rounded to 0.01 M) for the grid points it lists.
BASELINE_LADDER = ((0.5, 2048, 2.82e6), (1.0, 1024, 1.41e6))


def baseline_ladder(ladder: list[tuple[int, int]]) -> str:
    """Compare the cascade ladder at seed 0 with the ROADMAP baseline; a
    mismatch is reported as found, never tuned away."""
    by_t = dict(zip(workloads.CASCADE_GRID, ladder))
    found = []
    for t, n, steps in BASELINE_LADDER:
        got = by_t.get(t)
        if got is None or got[0] != n or round(got[1], -4) != steps:
            found.append(f"t={t}: want N={n} steps~{steps:.0f}, got {got}")
    return "match" if not found else "mismatch: " + "; ".join(found)


def _write_spans(wl, all_spans) -> None:
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{wl.name}-seed{wl.seed}.jsonl", "w", encoding="utf-8") as fh:
        for i, spans in enumerate(all_spans):
            for name, parent, start, end, counters in spans:
                fh.write(json.dumps([i, name, parent, start, end, list(counters)]) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    src = ROOT / "src"
    if not (src / "substochastic" / "__init__.py").is_file():
        print(f"error: no package source under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result, record = run(args)
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    record["result"] = result
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
