"""The latflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout.  The kernel extension is built in
place if the checkout's setup.py builds one, then passes of the workload
(workloads.py) run one after another, each in a fresh process, until S
seconds have gone; every pass gets the same inputs, made from N.  The
end-to-end metrics are medians over the passes.  With --trace 1 untraced
and traced passes alternate: the traced ones give the per-layer metrics,
the self time of each layer and the tracing overhead, and their spans are
written to .bench_build/perfbench/spans-NAME-seedN.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics (the end-to-end metrics with --trace 0, the
per-layer ones with --trace 1).  The line before it is a JSON report with
the run metadata, every metric measured and the failed checks.  With
--workload all every workload runs in both modes and a table of every
metric, by name and unit, is printed.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Longest a pass may take: a run of up to 45 s plus one hung pass still ends
# within three minutes.
PASS_TIMEOUT_S = 120


E2E = {
    "setup_s": "s",
    "cell_updates_per_s": "1/s",
    "time_to_result_s": "s",
    "peak_rss_mb": "MB",
}

# Reported on every workload with --trace 1.
PER_LAYER = {
    "sparse.matvec_s": "s",
    "sparse.matvec_p99_s": "s",
    "sparse.nnz": "count",
    "sparse.matvec_bytes_computed": "bytes",
    "sparse.from_triplets_s": "s",
    "sparse.self_s": "s",
    "backend.python_matvec_s": "s",
    "backend.self_s": "s",
    "systems.self_s": "s",
    "rules.apply_rule_s": "s",
    "rules.apply_rule_p99_s": "s",
    "rules.self_s": "s",
    "engine.step_s": "s",
    "engine.step_p99_s": "s",
    "engine.record_s": "s",
    "engine.self_s": "s",
    "analysis.detect_cycle_s": "s",
    "analysis.self_s": "s",
    "tracing_overhead": "ratio",
}

# Reported with --trace 1 on the workloads whose pass makes the call.
WORKLOAD_LAYER = {
    "life-steps": {
        "topology.generate_s": "s", "topology.self_s": "s",
        "engine.lfst_write_s": "s", "engine.lfst_read_s": "s", "engine.lfst_mb": "MB",
    },
    "rbn-build": {
        "topology.generate_s": "s", "topology.self_s": "s",
        "sparse.mm_write_s": "s", "sparse.mm_read_s": "s", "sparse.mm_bytes": "bytes",
        "rules.tables_s": "s", "rules.text_write_s": "s", "rules.text_read_s": "s",
    },
    "esn-analysis": {
        "systems.sampler_s": "s",
        "sparse.power_iteration_s": "s", "sparse.power_iteration_iters": "count",
        "engine.csv_write_s": "s", "engine.csv_read_s": "s", "engine.csv_mb": "MB",
        "analysis.detect_cycle_tol_s": "s", "analysis.pca_s": "s", "analysis.readout_s": "s",
    },
    "cli-life": {
        "topology.generate_s": "s", "topology.self_s": "s",
        "cli.startup_s": "s", "cli.run_s": "s", "cli.cycle_s": "s", "cli.pca_s": "s",
        "cli.render_s": "s", "cli.self_s": "s",
    },
}
COMPILED_LAYER = {"backend.compiled_matvec_s": "s"}

STEP = "engine.DynamicalSystem.step"
# metric: (span names, statistic, count only spans whose parent is a step).
# A timer the pass keeps around its own call of the same name takes
# precedence: engine.record_s and analysis.detect_cycle_s come from spans
# only on cli-life, where the calls happen inside the latflow command.
SPAN_METRICS = {
    "engine.record_s": (("engine.DynamicalSystem.run",), "total", False),
    "analysis.detect_cycle_s": (("analysis.detect_cycle",), "total", False),
    "sparse.matvec_s": (("sparse.SparseMatrix.matvec",), "median", True),
    "sparse.matvec_p99_s": (("sparse.SparseMatrix.matvec",), "p99", True),
    "rules.apply_rule_s": (("rules.apply_rule",), "median", True),
    "rules.apply_rule_p99_s": (("rules.apply_rule",), "p99", True),
    "engine.step_s": ((STEP,), "median", False),
    "engine.step_p99_s": ((STEP,), "p99", False),
    "topology.generate_s": (
        ("topology.generate_ca_2d", "topology.generate_random_digraph"), "total", False),
    "systems.sampler_s": (("systems.random_sparse_uniform",), "total", False),
    "rules.tables_s": (("rules.random_boolean_tables",), "total", False),
}


def span_metrics(spans):
    """Per-layer values of one traced pass from its spans, with sample counts."""
    names = {s[0]: s[2] for s in spans}
    out, samples = {}, {}
    for metric, (wanted, stat, under_step) in SPAN_METRICS.items():
        durations = [
            (end - start) * 1e-9
            for _sid, parent, name, _layer, start, end in spans
            if name in wanted and (not under_step or names.get(parent) == STEP)
        ]
        if not durations:
            continue
        if stat == "total":
            out[metric] = sum(durations)
        else:
            out[metric] = (statistics.median(durations) if stat == "median" or len(durations) < 2
                           else statistics.quantiles(durations, n=100, method="inclusive")[98])
            samples[metric] = len(durations)
    ttr = sum((s[5] - s[4]) * 1e-9 for s in spans if s[2] == "bench.pass")
    self_times = dict.fromkeys((*tracing.LAYERS, tracing.BENCH_LAYER), 0.0)
    self_times.update(tracing.self_times(spans))
    for layer, seconds in self_times.items():
        out[f"{layer}.self_s"] = seconds
        out[f"{layer}.self_share"] = seconds / ttr
    return out, samples


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def build(env):
    """Build the kernel extension in place when setup.py builds one; a
    checkout without a buildable extension runs the numpy fallback."""
    if not (ROOT / "setup.py").is_file():
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(OUT / "build_ext")],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"building the extension failed:\n{proc.stderr[-2000:]}")


def run_pass(workload, seed, size, traced, workdir, env, cpu):
    """One pass in a fresh process pinned to ``cpu``; returns its parsed
    result, with the spans it wrote when traced."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), size,
           "1" if traced else "0", str(workdir), str(cpu)]
    # its own session, so that a pass that hangs is killed with its children
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            stdout, stderr = "", f"pass did not end within {PASS_TIMEOUT_S} s"
    lines = stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    else:
        result = {"error": f"pass exited with {proc.returncode}: {stderr[-2000:]}"}
    result["traced"] = traced
    if traced:
        result["spans"] = []
        for path in sorted(workdir.glob("spans*.json")):
            with open(path) as f:
                result["spans"].extend(json.load(f))
    shutil.rmtree(workdir)
    return result


def measure(workload, seed, seconds, trace, size, env):
    """Alternate untraced (and, with trace, traced) passes for ``seconds``:
    a pass starts only if a pass of median length would still end in time,
    and there is at least one pass of each kind.  On a shared host each CPU
    runs fast and slow phases of its own, so successive passes (pairs of
    passes when traced) go to the CPUs in turn, and a run samples them all."""
    modes = (False, True) if trace else (False,)
    cpus = sorted(os.sched_getaffinity(0))
    tmp = OUT / f"tmp-{os.getpid()}"
    passes, lengths = [], []
    start = time.monotonic()
    while len(passes) < len(modes) or (
        time.monotonic() - start + statistics.median(lengths) <= seconds
    ):
        traced = modes[len(passes) % len(modes)]
        t = time.monotonic()
        cpu = cpus[len(passes) // len(modes) % len(cpus)]
        passes.append(run_pass(workload, seed, size, traced, tmp / str(len(passes)), env, cpu))
        lengths.append(time.monotonic() - t)
    shutil.rmtree(tmp, ignore_errors=True)
    return passes


def llc():
    """Largest CPU cache, as the kernel reports it in sysfs."""
    best = None
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and (best is None or level > best["level"]):
            best = {"level": level, "size": size}
    return best


def summarize(workload, seed, size, trace, passes):
    ok = [p for p in passes if "error" not in p]
    attempted = sum(len(p.get("checks", [])) + ("error" in p) for p in passes)
    failures = [
        {"check": name, "detail": detail}
        for p in passes for name, passed, detail in p.get("checks", []) if not passed
    ] + [{"check": "pass", "detail": p["error"]} for p in passes if "error" in p]
    untraced = [p for p in ok if not p["traced"]]
    if not untraced:
        raise SystemExit("no pass completed:\n" + "\n".join(f["detail"] for f in failures))
    first = untraced[0]

    per_pass = {
        "setup_s": [p["phases"]["setup_s"] for p in untraced],
        "cell_updates_per_s": [
            p["counts"]["cells_x_steps"] / p["phases"]["run_s"] for p in untraced],
        "time_to_result_s": [p["phases"]["time_to_result_s"] for p in untraced],
        "peak_rss_mb": [p["counts"]["peak_rss_mb"] for p in untraced],
    }
    e2e = {k: statistics.median(v) for k, v in per_pass.items()}
    report = {
        "workload": workload,
        "seed": seed,
        "sizes": SIZES[size][workload],
        "load": "closed loop, one caller, one pass at a time, each pass a fresh process",
        "backend": first["backend"],
        "compiled_available": first["compiled_available"],
        "python": first["python"],
        "numpy": first["numpy"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "blas_threads": {var: child_env()[var] for var in BLAS_THREAD_VARS},
        "last_level_cache": llc(),
        # computed from the matrix, not measured; no bandwidth ratio is claimed
        "sparse.matvec_bytes_computed": first["counts"]["sparse.matvec_bytes_computed"],
        "passes": {"untraced": len(untraced), "traced": sum(p["traced"] for p in ok),
                   "failed": len(passes) - len(ok)},
        "failed_ratio": len(failures) / attempted if attempted else 1.0,
        "failures": failures,
        "end_to_end": {k: {"value": v, "unit": E2E[k]} for k, v in e2e.items()},
        "end_to_end_per_pass": per_pass,
    }
    metrics = {k: {"value": v, "unit": E2E[k]} for k, v in e2e.items()}
    if trace:
        layer, samples = layer_metrics(
            workload, [p for p in ok if p["traced"]], e2e["time_to_result_s"])
        report["per_layer"] = layer
        report["samples"] = samples
        report["spans_file"] = write_spans(workload, seed, passes)
        metrics = {k: layer[k] for k in PER_LAYER}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return report, result


def layer_metrics(workload, traced, untraced_ttr):
    """Per-layer metrics: medians over the traced passes.  The tracing
    overhead compares their time to result with the median of the untraced
    passes of the same run."""
    if not traced:
        raise SystemExit("no traced pass completed")
    units = dict(PER_LAYER, **WORKLOAD_LAYER[workload], **COMPILED_LAYER)
    per_pass, samples = [], {}
    for p in traced:
        values, samples = span_metrics(p["spans"])
        values.update(p["phases"])
        values.update(p["counts"])
        values["tracing_overhead"] = values["time_to_result_s"] / untraced_ttr
        per_pass.append(values)
    out = {}
    for name in sorted({k for values in per_pass for k in values}):
        unit = unit_of(name, units)
        if unit is not None:
            values = [v[name] for v in per_pass if name in v]
            out[name] = {"value": statistics.median(values), "unit": unit}
    missing = [name for name in PER_LAYER if name not in out]
    if missing:
        raise SystemExit(f"per-layer metrics not measured: {missing}")
    return out, samples


def unit_of(name, units):
    """Unit of a per-layer value, or None for values that are not reported."""
    if name.endswith(".self_share"):
        return "fraction"
    if name.endswith(".self_s"):
        return "s"
    return units.get(name)


def write_spans(workload, seed, passes):
    path = OUT / f"spans-{workload}-seed{seed}.json"
    keys = ("id", "parent", "name", "layer", "start_ns", "end_ns")
    with open(path, "w") as f:
        json.dump([
            dict(zip(keys, s), **{"pass": i})
            for i, p in enumerate(passes) if p["traced"] for s in p.get("spans", [])
        ], f)
    return str(path.relative_to(ROOT))


def benchmark(workload, seed, seconds, trace, size, env):
    passes = measure(workload, seed, seconds, trace, size, env)
    return summarize(workload, seed, size, trace, passes)


def print_table(workload, report):
    if "per_layer" in report:
        rows = [(k, v["value"], v["unit"]) for k, v in report["per_layer"].items()]
    else:
        rows = [("failed_ratio", report["failed_ratio"], "fraction")]
        rows += [(k, v["value"], v["unit"]) for k, v in report["end_to_end"].items()]
    for name, value, unit in rows:
        print(f"{workload:14s} {name:34s} {value:14.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="toy sizes are for the harness self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "latflow" / "__init__.py").is_file():
        print(f"no latflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    env = child_env()
    build(env)
    # compile bytecode and warm the file cache before any pass is timed
    subprocess.run([sys.executable, "-c", "import latflow, latflow.cli"], env=env, check=True)

    if args.workload != "all":
        report, result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                                   args.size, env)
        print(json.dumps({"report": report}))
        print(json.dumps(result))
        return 0
    summary = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            report, result = benchmark(workload, args.seed, args.seconds, trace, args.size, env)
            print_table(workload, report)
            summary[f"{workload}/trace{int(trace)}"] = result
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
