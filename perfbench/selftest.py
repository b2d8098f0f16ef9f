"""Fast self-test of the benchmark harness at toy sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced through run.py, the way
the benchmark is invoked, and checks that each run is correct and reports
every metric with its unit: the end-to-end and per-layer sets that
BENCHMARK.json names, the workload's own per-layer metrics, and the self
time of every layer.  It also checks that BENCHMARK.json and run.py agree,
and that the benchmark fails, without a result, when the latflow sources
are missing.  Exits 0 when everything holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def invoke(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


def main():
    errors = []

    def expect(ok, message):
        if not ok:
            errors.append(message)

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    expect(units(spec["end_to_end"]) == run.E2E, "BENCHMARK.json end_to_end differs from run.E2E")
    expect(units(spec["per_layer"]) == run.PER_LAYER,
           "BENCHMARK.json per_layer differs from run.PER_LAYER")
    expect({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS),
           "BENCHMARK.json names a workload that workloads.WORKLOADS lacks")

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = invoke(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-1000:]}")
                continue
            *_, report_line, result_line = proc.stdout.strip().splitlines()
            result = json.loads(result_line)
            report = json.loads(report_line)["report"]
            expect(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: failures {report['failures']}")
            want = run.PER_LAYER if trace else run.E2E
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{label}: metrics {got}")
            if trace:
                layer = {k: v["unit"] for k, v in report["per_layer"].items()}
                own = dict(run.WORKLOAD_LAYER[workload])
                own.update({f"{name}.self_s": "s" for name in tracer.LAYERS})
                own.update({f"{name}.self_share": "fraction" for name in tracer.LAYERS})
                wrong = {k: u for k, u in own.items() if layer.get(k) != u}
                expect(not wrong, f"{label}: per-layer metrics missing or mislabelled: {wrong}")
                expect((ROOT / report["spans_file"]).is_file(), f"{label}: no spans file")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = invoke(bare, "life-steps", 0)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py without latflow sources did not fail without a result")
    shutil.rmtree(bare)

    for message in errors:
        print(f"FAIL {message}")
    print(f"selftest: {'FAILED' if errors else 'ok'} ({len(errors)} problems)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
