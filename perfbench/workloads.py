"""One pass of one benchmark workload, run in a fresh process.

    python3 perfbench/workloads.py WORKLOAD SEED SIZE TRACE WORKDIR CPU

The workload's inputs come from SEED alone; latflow receives only what was
generated from it (a preset seed, an init vector or a config file).  The
pass runs through latflow's public API, or through the ``latflow`` command
for cli-life, with one caller and one call at a time.  Its timed region runs
from the start of set-up to the last output written; the output checks run
after it.  The pass prints one JSON object on its last line of stdout.

With TRACE 1 a span is recorded around every public latflow call (see
tracer.py) and written to WORKDIR/spans*.json, and a few per-layer
micro-timings are taken after the timed region.
"""

import json
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import checks
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

SIZES = {
    "full": {
        "life-steps": {"width": 256, "height": 256, "steps": 1000, "record": 100},
        "rbn-build": {"n": 100000, "k": 2, "steps": 300, "record": 20},
        "esn-analysis": {"n": 1000, "density": 0.01, "rho": 0.9, "steps": 2000,
                         "cycle_rows": 500, "cycle_tol": 1e-9, "ridge": 1e-6},
        "cli-life": {"width": 64, "height": 64, "steps": 200},
    },
    "toy": {
        "life-steps": {"width": 16, "height": 16, "steps": 40, "record": 10},
        "rbn-build": {"n": 300, "k": 2, "steps": 30, "record": 5},
        "esn-analysis": {"n": 40, "density": 0.2, "rho": 0.9, "steps": 60,
                         "cycle_rows": 30, "cycle_tol": 1e-9, "ridge": 1e-6},
        "cli-life": {"width": 8, "height": 8, "steps": 12},
    },
}

# Fewest samples and seconds spent on each micro-timing of a traced pass.
MICRO_SAMPLES = 20
MICRO_SECONDS = 0.3


class Pass:
    """Timers, counts and check results of one pass.

    ``time_to_result_s`` is the sum of the timed calls, which cover the
    timed region from the start of set-up to the last output written.
    """

    def __init__(self, lf, workdir, tracer):
        self.lf = lf
        self.workdir = Path(workdir).resolve()
        self.tracer = tracer
        self.phases = {}
        self.counts = {}
        self.checks = []

    def path(self, name):
        return str(self.workdir / name)

    def start(self):
        if self.tracer is not None:
            self._root = self.tracer.begin("bench.pass", tracing.BENCH_LAYER)

    def stop(self, cells_x_steps):
        if self.tracer is not None:
            self.tracer.end(self._root)
            self.tracer.active = False
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.counts["peak_rss_mb"] = max(own, children) * 1024 / 1e6
        self.counts["cells_x_steps"] = cells_x_steps

    @contextmanager
    def phase(self, *names):
        t = time.perf_counter()
        yield
        elapsed = time.perf_counter() - t
        for name in ("time_to_result_s", *names):
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    def check(self, name, ok, detail=""):
        self.checks.append([name, bool(ok), detail])

    def file_mb(self, name, path):
        self.counts[name] = os.path.getsize(path) / 1e6

    def matrix(self, matrix, state):
        """Operation counts of the matvec, the kernel agreement check and,
        when traced, a rebuild from triplets and the kernel micro-timings,
        all on the workload's matrix."""
        from latflow import backend

        n, nnz = matrix.n_rows, matrix.nnz
        self.counts["sparse.nnz"] = nnz
        # computed, not measured: data + column index + gathered x per entry,
        # the row pointers, and the output vector, all 8-byte words
        self.counts["sparse.matvec_bytes_computed"] = 8 * (3 * nnz + (n + 1) + n)
        args = (matrix.data, matrix.indices, matrix.indptr, np.asarray(state, dtype=np.float64))
        if backend.compiled_available():
            diff = float(np.max(np.abs(
                backend.csr_matvec_python(*args) - backend.csr_matvec_compiled(*args)
            ), initial=0.0))
            self.check("compiled and fallback kernels agree to 1e-12", diff <= 1e-12, f"{diff:.3e}")
        if self.tracer is not None:
            triplets = matrix.triplets()
            t = time.perf_counter()
            self.lf.SparseMatrix.from_triplets(matrix.n_rows, matrix.n_cols, triplets)
            self.counts["sparse.from_triplets_s"] = time.perf_counter() - t
            self.counts["backend.python_matvec_s"] = _median_call(backend.csr_matvec_python, args)
            if backend.compiled_available():
                self.counts["backend.compiled_matvec_s"] = _median_call(
                    backend.csr_matvec_compiled, args)


def _median_call(fn, args):
    times = []
    end = time.perf_counter() + MICRO_SECONDS
    while len(times) < MICRO_SAMPLES or time.perf_counter() < end:
        t = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t)
    return float(np.median(times))


def life_steps(p, size, rng):
    lf = p.lf
    w, h, steps, record = size["width"], size["height"], size["steps"], size["record"]
    init = rng.integers(0, 2, size=w * h).astype(np.float64)
    path = p.path("history.lfst")
    p.start()
    with p.phase("setup_s"):
        system = lf.game_of_life(w, h, wrapped=True, init=init)
    with p.phase("run_s"):
        system.run(steps)
    with p.phase("run_s", "engine.record_s"):
        history = system.run(record, record=True)
    with p.phase("engine.lfst_write_s"):
        history.save_binary(path)
    with p.phase("engine.lfst_read_s"):
        loaded = lf.StateHistory.load_binary(path)
    with p.phase("analysis.detect_cycle_s"):
        cycle = lf.detect_cycle(loaded)
    p.stop(w * h * (steps + record))

    p.file_mb("engine.lfst_mb", path)
    final = checks.life_run(init.reshape(h, w).astype(np.int8), steps + record)
    p.check("life final state matches the shifted-copy simulation",
            np.array_equal(final.ravel(), history.states[-1]))
    p.check("recorded life rows follow the rule", checks.life_history_ok(history.states, h, w))
    p.check("LFST round trip is exact", _same(loaded.states, history.states))
    p.check("detect_cycle matches brute force",
            (cycle.transient_length, cycle.period) == checks.first_cycle(history.states))
    p.matrix(system.matrix, system.state)


def rbn_build(p, size, rng):
    lf = p.lf
    n, k, steps, record = size["n"], size["k"], size["steps"], size["record"]
    preset_seed = int(rng.integers(2**31))
    init = rng.integers(0, 2, size=n).astype(np.float64)
    mm_path, rule_path = p.path("matrix.mtx"), p.path("rule.txt")
    p.start()
    with p.phase("setup_s"):
        system = lf.random_boolean_network(n, k, preset_seed, init=init)
    with p.phase("run_s"):
        system.run(steps)
    with p.phase("run_s", "engine.record_s"):
        history = system.run(record, record=True)
    with p.phase("sparse.mm_write_s"):
        lf.save_matrix_market(mm_path, system.matrix)
    with p.phase("sparse.mm_read_s"):
        matrix = lf.load_matrix_market(mm_path)
    with p.phase("rules.text_write_s"):
        lf.save_rule(rule_path, system.rule)
    with p.phase("rules.text_read_s"):
        rule = lf.load_rule(rule_path)
    with p.phase("analysis.detect_cycle_s"):
        cycle = lf.detect_cycle(history)
    p.stop(n * (steps + record))

    p.counts["sparse.mm_bytes"] = os.path.getsize(mm_path)
    with open(rule_path) as f:
        rule_text = f.read()
    tables = checks.parse_pernode_tables(rule_text)
    p.check("recorded RBN steps replay from node_inputs and the tables",
            checks.rbn_history_ok(history.states, system.node_inputs, tables))
    p.check("Matrix Market round trip is exact",
            matrix.shape == system.matrix.shape
            and all(_same(getattr(matrix, a), getattr(system.matrix, a))
                    for a in ("indptr", "indices", "data")))
    p.check("rule text round trip is exact", lf.rule_to_text(rule) == rule_text)
    p.check("detect_cycle matches brute force",
            (cycle.transient_length, cycle.period) == checks.first_cycle(history.states))
    p.matrix(system.matrix, system.state)


def esn_analysis(p, size, rng):
    lf = p.lf
    n, steps, ridge = size["n"], size["steps"], size["ridge"]
    rows, tol = size["cycle_rows"], size["cycle_tol"]
    preset_seed = int(rng.integers(2**31))
    init = rng.uniform(-1.0, 1.0, size=n)
    targets = rng.standard_normal(steps + 1)
    path = p.path("history.csv")
    p.start()
    with p.phase("setup_s"):
        system = lf.echo_state_network(n, size["density"], size["rho"], preset_seed, init=init)
    with p.phase("run_s", "engine.record_s"):
        history = system.run(steps, record=True)
    with p.phase("engine.csv_write_s"):
        history.save_csv(path)
    with p.phase("engine.csv_read_s"):
        loaded = lf.StateHistory.load_csv(path)
    with p.phase("analysis.pca_s"):
        trajectory = lf.pca_project(loaded)
    with p.phase("analysis.readout_s"):
        model = lf.train_linear_readout(loaded, targets, ridge)
    with p.phase("analysis.detect_cycle_s", "analysis.detect_cycle_tol_s"):
        cycle = lf.detect_cycle(lf.StateHistory(loaded.states[:rows]), tol=tol)
    p.stop(n * steps)

    p.file_mb("engine.csv_mb", path)
    p.check("CSV round trip is exact", _same(loaded.states, history.states))
    p.check("PCA variances match LAPACK eigvalsh",
            checks.pca_ok(history.states, trajectory.points, trajectory.explained_variance))
    ok, err, bound = checks.readout_ok(history.states, targets, ridge, model.weights)
    p.check("readout weights match lstsq on the ridge-augmented system", ok,
            f"relative error {err:.3e}, bound {bound:.3e}")
    p.check("detect_cycle(tol) matches brute force",
            (cycle.transient_length, cycle.period) == checks.first_cycle(history.states[:rows], tol))
    p.matrix(system.matrix, system.state)
    if p.tracer is not None:
        t = time.perf_counter()
        result = lf.power_iteration(system.matrix)
        p.counts["sparse.power_iteration_s"] = time.perf_counter() - t
        p.counts["sparse.power_iteration_iters"] = result.iterations


# (timers, arguments) of each latflow command of a cli-life pass
CLI_STEPS = (
    (("cli.startup_s", "setup_s"), ["--help"]),
    (("cli.run_s", "run_s"), ["run", "--config", "run.cfg"]),
    (("cli.cycle_s",), ["cycle", "--states", "history.csv"]),
    (("cli.pca_s",), ["pca", "--states", "history.csv", "--out", "pca.csv", "--svg", "pca.svg"]),
    (("cli.render_s",), ["render", "--states", "history.csv", "--width", "{width}",
                         "--height", "{height}", "--format", "txt", "--out", "render.txt"]),
)


def cli_life(p, size, rng):
    w, h, steps = size["width"], size["height"], size["steps"]
    preset_seed = int(rng.integers(2**31))
    with open(p.path("run.cfg"), "w") as f:
        f.write(
            f"system = life\nwidth = {w}\nheight = {h}\nwrapped = true\n"
            f"seed = {preset_seed}\nsteps = {steps}\ninit = random\n"
            f"record = history.csv\nformat = csv\n"
        )
    results = {}
    p.start()
    for names, args in CLI_STEPS:
        name = names[0][:-2]
        with p.phase(*names):
            results[name] = _latflow(p, name, [a.format(width=w, height=h) for a in args])
    p.stop(w * h * steps)

    for name, proc in results.items():
        p.check(f"{name} exits with 0", proc.returncode == 0, proc.stderr[-300:])
    p.check("--help prints the usage", results["cli.startup"].stdout.startswith("usage: latflow"))
    history = np.loadtxt(p.path("history.csv"), delimiter=",", ndmin=2)
    p.check("run records steps + 1 rows that follow the life rule",
            history.shape == (steps + 1, w * h) and checks.life_history_ok(history, h, w))
    p.check("cycle output matches brute force",
            checks.parse_cycle_output(results["cli.cycle"].stdout) == checks.first_cycle(history))
    with open(p.path("pca.csv")) as f:
        parsed = checks.parse_pca_output(f.read(), results["cli.pca"].stdout)
    p.check("pca output parses and its variances match LAPACK eigvalsh",
            parsed is not None and checks.pca_ok(history, *parsed))
    with open(p.path("pca.svg")) as f:
        p.check("pca SVG parses with one point per state", checks.svg_points(f.read()) == len(history))
    with open(p.path("render.txt")) as f:
        p.check("txt render shows every recorded state", checks.render_ok(f.read(), history, h, w))
    system = p.lf.game_of_life(w, h, wrapped=True, init=history[-1])
    p.matrix(system.matrix, system.state)


def _latflow(p, name, args):
    """Run the latflow command in the pass's directory; when traced, through
    latflow_traced.py under a span of its own."""
    if p.tracer is None:
        return _run([sys.executable, "-m", "latflow", *args], p.workdir)
    with p.tracer.span(name, "cli") as sid:
        spans = p.path(f"spans-{name}.json")
        return _run([sys.executable, str(HERE / "latflow_traced.py"), spans, sid, *args], p.workdir)


def _run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=False)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


WORKLOADS = {
    "life-steps": life_steps,
    "rbn-build": rbn_build,
    "esn-analysis": esn_analysis,
    "cli-life": cli_life,
}


def main(argv):
    workload, seed, size, trace, workdir, cpu = argv
    seed, trace = int(seed), trace == "1"
    os.sched_setaffinity(0, {int(cpu)})  # inherited by the latflow commands of cli-life
    import latflow
    import latflow.cli  # noqa: F401  (imported so that it can be traced)

    src = (ROOT / "src").resolve()
    if Path(latflow.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported latflow from {latflow.__file__}, not from {src}")
    out = {"backend": latflow.BACKEND, "compiled_available": latflow.compiled_available(),
           "python": sys.version.split()[0], "numpy": np.__version__}
    tracer = None
    if trace:
        tracer = tracing.Tracer(f"p{os.getpid()}")
        tracing.install(tracer)
    p = Pass(latflow, workdir, tracer)
    try:
        WORKLOADS[workload](p, SIZES[size][workload], np.random.default_rng(seed))
    except Exception:  # a failed pass is reported, not raised
        out["error"] = traceback.format_exc()
    if tracer is not None:
        tracer.dump(p.path("spans.json"))
    out.update(phases=p.phases, counts=p.counts, checks=p.checks)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
