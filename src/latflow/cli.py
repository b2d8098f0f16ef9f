"""Command-line surface: generate matrices, run systems, render states,
project trajectories, detect cycles, benchmark the matvec.

Exit codes: 0 success, 2 usage error (argparse), 3 data error.  Every
randomized command takes an explicit --seed; there is no time-based default.
"""

import argparse
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import backend
from .analysis import detect_cycle, pca_project
from .engine import load_history
from .errors import ArgumentTooSmall, ConfigError, FileFormatError, LatflowError, read_text
from .sparse import save_matrix_market
from .systems import (
    PRESETS,
    SystemConfig,
    _child_seeds,
    build_system,
    echo_state_network,
    random_sparse_uniform,
)
from .topology import (
    GridSpec,
    NeighborhoodSpec1D,
    NeighborhoodSpec2D,
    PositionalBase,
    UniformWeights,
    generate_ca_1d,
    generate_ca_2d,
    generate_random_digraph,
)


# -- stencil text format ---------------------------------------------------

def parse_stencil_text(text):
    """Stencil grid: rows of space-separated reals plus a ``center R C`` line."""
    rows = []
    center = None
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("center"):
            parts = ln.split()
            if len(parts) != 3:
                raise FileFormatError(f"bad center line: {ln!r}")
            try:
                center = (int(parts[1]), int(parts[2]))
            except ValueError as exc:
                raise FileFormatError(f"bad center line: {ln!r}") from exc
            continue
        try:
            rows.append([float(v) for v in ln.split()])
        except ValueError as exc:
            raise FileFormatError(f"bad stencil row: {ln!r}") from exc
    if center is None:
        raise FileFormatError("stencil file has no 'center R C' line")
    if not rows:
        raise FileFormatError("stencil file has no weight rows")
    if len({len(r) for r in rows}) != 1:
        raise FileFormatError("stencil rows have differing lengths")
    return NeighborhoodSpec2D(rows, center)


def load_stencil(path):
    return parse_stencil_text(read_text(path))


# -- run config file format ------------------------------------------------

# the config key of each SystemConfig field not set by the key of its name
_RENAMED = {"kind": "system", "rule_number": "rule"}
_SYSTEM_KEYS = {_RENAMED.get(f.name, f.name): f for f in fields(SystemConfig)}


@dataclass
class RunConfig:
    """Everything a ``run`` invocation needs, parsed from key = value text."""

    system: object
    steps: int
    init: str = "zeros"
    record: str = None
    format: str = None
    render: str = None
    render_out: str = None


_RUN_KEYS = {f.name: f for f in fields(RunConfig) if f.name != "system"}


def parse_config_text(text):
    pairs = {}
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        if "=" not in ln:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {ln!r}")
        key, value = (part.strip() for part in ln.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _cast(key, value, type_):
    """A config value as the type of the field its key sets."""
    if type_ is bool:
        if value.lower() in ("true", "yes", "1"):
            return True
        if value.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"{key} must be a boolean, got {value!r}")
    try:
        return type_(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def run_config_from_text(text):
    pairs = parse_config_text(text)
    unknown = set(pairs) - set(_SYSTEM_KEYS) - set(_RUN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "system" not in pairs:
        raise ConfigError("config requires 'system'")
    if "steps" not in pairs:
        raise ConfigError("config requires 'steps'")

    def values(keys):
        return {f.name: _cast(key, pairs[key], f.type)
                for key, f in keys.items() if key in pairs}

    sysconf = SystemConfig(**values(_SYSTEM_KEYS)).validate()
    # every kind takes seed, which init = random draws from
    taken = {"kind", "seed", *PRESETS[sysconf.kind].fields}
    stray = sorted(key for key, f in _SYSTEM_KEYS.items() if key in pairs and f.name not in taken)
    if stray:
        raise ConfigError(f"{sysconf.kind} does not take {', '.join(stray)}")
    rc = RunConfig(sysconf, **values(_RUN_KEYS))
    if rc.steps < 0:
        raise ConfigError(f"steps must be non-negative, got {rc.steps}")
    if rc.format not in (None, "csv", "bin"):
        raise ConfigError(f"format must be csv or bin, got {rc.format!r}")
    if rc.render not in (None, "txt", "pgm"):
        raise ConfigError(f"render must be txt or pgm, got {rc.render!r}")
    return rc


def make_initial_state(sysconf, init_spec):
    n = sysconf.n_cells
    if init_spec == "zeros":
        return np.zeros(n)
    if init_spec == "random":
        if sysconf.seed is None:
            raise ConfigError("init = random requires a seed")
        rng = np.random.default_rng(_child_seeds(sysconf.seed, 3)[2])
        uniform = PRESETS[sysconf.kind].uniform
        if uniform is None:
            return rng.integers(0, 2, size=n).astype(float)
        return rng.uniform(*uniform, size=n)
    if init_spec.startswith("onehot:"):
        cells = _cell_list(init_spec, n, "onehot")
        if len(cells) != 1:
            raise ConfigError(f"init {init_spec!r} names more than one cell")
    elif init_spec.startswith("cells:"):
        cells = _cell_list(init_spec, n, "cell")
    else:
        raise ConfigError(f"unknown init {init_spec!r}")
    state = np.zeros(n)
    state[cells] = 1.0
    return state


def _cell_list(init_spec, n, name):
    """The cell indices an init spec lists after its colon, each in [0, n)."""
    try:
        cells = [int(token) for token in init_spec.split(":", 1)[1].split(",")]
    except ValueError as exc:
        raise ConfigError(f"init {init_spec!r} is not a list of cell indices") from exc
    for idx in cells:
        if not 0 <= idx < n:
            raise ConfigError(f"{name} index {idx} outside [0, {n})")
    return cells


# -- rendering -------------------------------------------------------------

def _integer_grid(history, width, height):
    """The states as an int64 array of frames x height x width."""
    if width < 1 or height < 1 or width * height != history.n:
        raise ConfigError(
            f"{width}x{height} grid does not match {history.n} cells"
        )
    vals = history.states
    if len(vals) == 0:
        raise FileFormatError("no states to render")
    if np.any(vals != np.rint(vals)) or vals.min() < 0:
        raise FileFormatError("rendering needs non-negative integer states")
    return vals.astype(np.int64).reshape(-1, height, width)


def render_txt(history, width, height):
    """Dots and hashes for binary states, one digit per cell otherwise."""
    grids = _integer_grid(history, width, height)
    top = int(grids.max(initial=0))
    if top > 9:
        raise FileFormatError(
            f"txt rendering supports at most 10 states, max value is {top}"
        )
    glyphs = np.frombuffer(b".#" if top <= 1 else b"0123456789", dtype=np.uint8)
    rows = np.full(grids.shape[:2] + (width + 1,), ord("\n"), dtype=np.uint8)
    rows[..., :width] = glyphs[grids]
    # every row ends in a newline; one more between frames leaves a blank line
    return b"\n".join(frame.tobytes() for frame in rows).decode("ascii")


def render_pgm_files(history, width, height, prefix):
    grids = _integer_grid(history, width, height)
    maxval = max(1, int(grids.max(initial=0)))
    paths = []
    for step, frame in enumerate(grids):
        path = f"{prefix}{step:04d}.pgm"
        with open(path, "w") as f:
            f.write(f"P2\n{width} {height}\n{maxval}\n")
            np.savetxt(f, frame, fmt="%d")
        paths.append(path)
    return paths


# -- command handlers ------------------------------------------------------

def _write_matrix(matrix, out):
    save_matrix_market(out, matrix)
    print(f"rows={matrix.n_rows} cols={matrix.n_cols} nnz={matrix.nnz}")


def cmd_gen_ca1d(args):
    weights = [_cast("stencil weight", v, float) for v in args.stencil.split(",")]
    matrix = generate_ca_1d(
        GridSpec(args.width, 1, args.wrapped),
        NeighborhoodSpec1D(weights, args.center),
    )
    _write_matrix(matrix, args.out)


def cmd_gen_ca2d(args):
    nb = load_stencil(args.stencil_file)
    matrix = generate_ca_2d(GridSpec(args.width, args.height, args.wrapped), nb)
    _write_matrix(matrix, args.out)


def cmd_gen_rbn(args):
    scheme = UniformWeights(*args.uniform) if args.uniform else PositionalBase(args.base)
    matrix, _ = generate_random_digraph(
        args.nodes, args.in_degree, scheme, args.allow_self, args.seed
    )
    _write_matrix(matrix, args.out)


def cmd_gen_esn(args):
    system = echo_state_network(args.nodes, args.density, args.rho, args.seed)
    _write_matrix(system.matrix, args.out)


def cmd_run(args):
    rc = run_config_from_text(read_text(args.config, ConfigError))
    init = make_initial_state(rc.system, rc.init)
    system = build_system(rc.system, init)
    history = system.run(rc.steps, record=True)
    if rc.record:
        fmt = rc.format
        if fmt is None:
            fmt = "bin" if rc.record.endswith((".lfst", ".bin")) else "csv"
        if fmt == "bin":
            history.save_binary(rc.record)
        else:
            history.save_csv(rc.record)
        print(f"recorded {len(history)} states of {history.n} cells to {rc.record}")
    else:
        sys.stdout.write(history.to_csv())
    if rc.render:
        # a kind without a width is one row; a grid's sizes are at least 1
        _render(history, rc.render, rc.system.width or rc.system.n_cells,
                rc.system.height or 1, rc.render_out, "render = pgm requires render_out prefix")


def cmd_render(args):
    history = load_history(args.states)
    out = args.out if args.format == "txt" else args.out_prefix
    paths = _render(history, args.format, args.width, args.height, out,
                    "pgm rendering requires --out-prefix")
    if args.format == "pgm":
        print(f"wrote {len(paths)} pgm files")


def _render(history, fmt, width, height, out, no_prefix):
    """Renders txt to the file ``out``, or to stdout without one, or pgm
    files named from the prefix ``out``, whose absence raises ConfigError
    with the message ``no_prefix``.  Returns the pgm files' paths."""
    if fmt == "txt":
        text = render_txt(history, width, height)
        if out:
            with open(out, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        return []
    if not out:
        raise ConfigError(no_prefix)
    return render_pgm_files(history, width, height, out)


def cmd_pca(args):
    history = load_history(args.states)
    trajectory = pca_project(history, args.components)
    trajectory.save_csv(args.out)
    if args.svg:
        trajectory.save_svg(args.svg)
    variances = ",".join(repr(v) for v in trajectory.explained_variance)
    print(f"points={len(trajectory.points)} explained_variance={variances}")


def cmd_cycle(args):
    history = load_history(args.states)
    report = detect_cycle(history, tol=args.tol)
    if report.period > 0:
        suffix = " (approximate)" if args.tol > 0 else ""
        print(f"transient={report.transient_length} period={report.period}{suffix}")
    else:
        print(f"no cycle within {len(history) - 1} recorded steps")


# bench skips the dense baseline when its n x n float64 copy would be larger
_DENSE_BENCH_MAX_BYTES = 2**30


def cmd_bench(args):
    if args.repeats < 1:
        raise ArgumentTooSmall(f"--repeats {args.repeats} must be at least 1")
    matrix = random_sparse_uniform(args.n, args.density, args.seed)
    dense_bytes = 8 * args.n * args.n
    dense = matrix.to_dense() if dense_bytes <= _DENSE_BENCH_MAX_BYTES else None
    rng = np.random.default_rng(_child_seeds(args.seed, 2)[1])
    v = rng.uniform(-1.0, 1.0, size=args.n)

    def timed(f, repeats):
        f(v)  # warmup
        start = time.perf_counter()
        for _ in range(repeats):
            f(v)
        return (time.perf_counter() - start) / repeats

    dense_mean = timed(lambda x: dense @ x, args.repeats) if dense is not None else None
    sparse_mean = timed(matrix.matvec, args.repeats)
    python_mean = timed(
        lambda x: backend.csr_matvec_python(
            matrix.data, matrix.indices, matrix.indptr, x
        ),
        args.repeats,
    )
    print(
        f"matvec benchmark: n={args.n} density={args.density} "
        f"nnz={matrix.nnz} repeats={args.repeats} seed={args.seed}"
    )
    if dense is None:
        print(
            f"dense baseline skipped: {args.n}x{args.n} float64 would take "
            f"{dense_bytes / 2**30:.1f} GiB, above the {_DENSE_BENCH_MAX_BYTES / 2**30:.0f} GiB cap"
        )
    else:
        print(f"dense mean:  {dense_mean:.3e} s")
    print(f"sparse mean: {sparse_mean:.3e} s (backend: {backend.BACKEND})")
    print(f"sparse mean: {python_mean:.3e} s (backend: python fallback)")
    if backend.BACKEND == "c":
        kernel_ratio = python_mean / sparse_mean if sparse_mean > 0 else float("inf")
        print(f"compiled kernel (backend: c) speedup over fallback: {kernel_ratio:.2f}x")
    if dense is None:
        return
    diff = float(np.max(np.abs(dense @ v - matrix.matvec(v))))
    ratio = dense_mean / sparse_mean if sparse_mean > 0 else float("inf")
    print(f"speedup dense/sparse: {ratio:.2f}x")
    print(f"max |dense - sparse| = {diff:.3e} (within 1e-12: {'yes' if diff <= 1e-12 else 'NO'})")
    if ratio < 1.0 and args.density <= 0.01:
        print("anomalous: sparse slower than dense at this sparsity")


# -- parser ----------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="latflow",
        description="Sparsely connected dynamical systems as matrix + rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate adjacency matrices")
    gensub = gen.add_subparsers(dest="generator", required=True)

    ca1d = gensub.add_parser("ca1d", help="1D lattice from a stencil")
    ca1d.add_argument("--width", type=int, required=True)
    ca1d.add_argument("--stencil", required=True, help="comma-separated weights")
    ca1d.add_argument("--center", type=int, required=True)
    ca1d.add_argument("--wrapped", action="store_true")
    ca1d.add_argument("-o", "--out", required=True)
    ca1d.set_defaults(func=cmd_gen_ca1d)

    ca2d = gensub.add_parser("ca2d", help="2D lattice from a stencil file")
    ca2d.add_argument("--width", type=int, required=True)
    ca2d.add_argument("--height", type=int, required=True)
    ca2d.add_argument("--stencil-file", required=True)
    ca2d.add_argument("--wrapped", action="store_true")
    ca2d.add_argument("-o", "--out", required=True)
    ca2d.set_defaults(func=cmd_gen_ca2d)

    rbn = gensub.add_parser("rbn", help="random digraph with fixed in-degree")
    rbn.add_argument("--nodes", type=int, required=True)
    rbn.add_argument("--in-degree", type=int, required=True)
    rbn.add_argument("--seed", type=int, required=True)
    rbn.add_argument("--base", type=int, default=2,
                     help="positional weight base (default 2)")
    rbn.add_argument("--uniform", type=float, nargs=2, metavar=("LO", "HI"),
                     help="uniform weights instead of positional")
    rbn.add_argument("--allow-self", action="store_true")
    rbn.add_argument("-o", "--out", required=True)
    rbn.set_defaults(func=cmd_gen_rbn)

    esn = gensub.add_parser("esn", help="scaled echo-state reservoir matrix")
    esn.add_argument("--nodes", type=int, required=True)
    esn.add_argument("--density", type=float, required=True)
    esn.add_argument("--rho", type=float, required=True)
    esn.add_argument("--seed", type=int, required=True)
    esn.add_argument("-o", "--out", required=True)
    esn.set_defaults(func=cmd_gen_esn)

    run = sub.add_parser("run", help="run a system from a config file")
    run.add_argument("--config", required=True)
    run.set_defaults(func=cmd_run)

    render = sub.add_parser("render", help="render recorded states")
    render.add_argument("--states", required=True)
    render.add_argument("--width", type=int, required=True)
    render.add_argument("--height", type=int, required=True)
    render.add_argument("--format", choices=("txt", "pgm"), default="txt")
    render.add_argument("--out")
    render.add_argument("--out-prefix")
    render.set_defaults(func=cmd_render)

    pca = sub.add_parser("pca", help="project states onto principal components")
    pca.add_argument("--states", required=True)
    pca.add_argument("--out", required=True)
    pca.add_argument("--svg")
    pca.add_argument("--components", type=int, default=2)
    pca.set_defaults(func=cmd_pca)

    cycle = sub.add_parser("cycle", help="detect a state cycle")
    cycle.add_argument("--states", required=True)
    cycle.add_argument("--tol", type=float, default=0.0)
    cycle.set_defaults(func=cmd_cycle)

    bench = sub.add_parser("bench", help="dense vs sparse matvec timing")
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--density", type=float, required=True)
    bench.add_argument("--repeats", type=int, default=100)
    bench.add_argument("--seed", type=int, required=True)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (LatflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
