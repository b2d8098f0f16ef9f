"""Command-line surface: generate matrices, run systems, render states,
project trajectories, detect cycles, benchmark the matvec.

Exit codes: 0 success, 2 usage error (argparse), 3 data error.  Every
randomized command takes an explicit --seed; there is no time-based default.
Heavy imports happen inside the handlers so --threads can pin BLAS thread
counts before numpy loads.
"""

import argparse
import os
import sys
from dataclasses import dataclass, field

from .errors import ConfigError, FileFormatError, LatflowError

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_threads(argv):
    # Must run before numpy is first imported to take effect.
    if "--threads" in argv:
        k = argv.index("--threads")
        if k + 1 < len(argv):
            for var in _THREAD_VARS:
                os.environ.setdefault(var, argv[k + 1])


# -- stencil text format ---------------------------------------------------

def parse_stencil_text(text):
    """Stencil grid: rows of space-separated reals plus a ``center R C`` line."""
    from .topology import NeighborhoodSpec2D

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
    with open(path) as f:
        return parse_stencil_text(f.read())


# -- run config file format ------------------------------------------------

_SYSTEM_KEYS = {
    "system": str,
    "width": int,
    "height": int,
    "wrapped": None,  # boolean, parsed specially
    "rule": int,
    "nodes": int,
    "in_degree": int,
    "eps": float,
    "r": float,
    "density": float,
    "rho": float,
    "seed": int,
}
_RUN_KEYS = {"steps": int, "init": str, "record": str, "format": str,
             "render": str, "render_out": str}


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
    extras: dict = field(default_factory=dict)


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


def _parse_bool(value, key):
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {value!r}")


def run_config_from_text(text):
    from .systems import SystemConfig

    pairs = parse_config_text(text)
    unknown = set(pairs) - set(_SYSTEM_KEYS) - set(_RUN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "system" not in pairs:
        raise ConfigError("config requires 'system'")
    if "steps" not in pairs:
        raise ConfigError("config requires 'steps'")

    def grab(key, cast):
        if key not in pairs:
            return None
        try:
            return cast(pairs[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {pairs[key]!r}") from exc

    sysconf = SystemConfig(
        kind=pairs["system"],
        width=grab("width", int),
        height=grab("height", int),
        wrapped=_parse_bool(pairs["wrapped"], "wrapped") if "wrapped" in pairs else True,
        rule_number=grab("rule", int),
        nodes=grab("nodes", int),
        in_degree=grab("in_degree", int),
        eps=grab("eps", float),
        r=grab("r", float),
        density=grab("density", float),
        rho=grab("rho", float),
        seed=grab("seed", int),
    ).validate()
    steps = grab("steps", int)
    if steps < 0:
        raise ConfigError(f"steps must be non-negative, got {steps}")
    fmt = pairs.get("format")
    if fmt is not None and fmt not in ("csv", "bin"):
        raise ConfigError(f"format must be csv or bin, got {fmt!r}")
    render = pairs.get("render")
    if render is not None and render not in ("txt", "pgm"):
        raise ConfigError(f"render must be txt or pgm, got {render!r}")
    return RunConfig(
        system=sysconf,
        steps=steps,
        init=pairs.get("init", "zeros"),
        record=pairs.get("record"),
        format=fmt,
        render=render,
        render_out=pairs.get("render_out"),
    )


def run_config_to_text(rc):
    """Inverse of run_config_from_text, for round-tripping configs."""
    s = rc.system
    lines = [f"system = {s.kind}"]
    for key, attr in (
        ("width", "width"), ("height", "height"), ("rule", "rule_number"),
        ("nodes", "nodes"), ("in_degree", "in_degree"), ("eps", "eps"),
        ("r", "r"), ("density", "density"), ("rho", "rho"), ("seed", "seed"),
    ):
        value = getattr(s, attr)
        if value is not None:
            lines.append(f"{key} = {value}")
    lines.append(f"wrapped = {'true' if s.wrapped else 'false'}")
    lines.append(f"steps = {rc.steps}")
    lines.append(f"init = {rc.init}")
    for key in ("record", "format", "render", "render_out"):
        value = getattr(rc, key)
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def make_initial_state(sysconf, init_spec):
    import numpy as np

    from .systems import _child_seeds

    n = sysconf.n_cells
    if init_spec == "zeros":
        return np.zeros(n)
    if init_spec == "random":
        if sysconf.seed is None:
            raise ConfigError("init = random requires a seed")
        rng = np.random.default_rng(_child_seeds(sysconf.seed, 3)[2])
        if sysconf.kind in ("elementary_ca", "life", "rbn"):
            return rng.integers(0, 2, size=n).astype(float)
        if sysconf.kind == "cml":
            return rng.uniform(0.0, 1.0, size=n)
        return rng.uniform(-1.0, 1.0, size=n)
    if init_spec.startswith("onehot:"):
        idx = int(init_spec.split(":", 1)[1])
        if not 0 <= idx < n:
            raise ConfigError(f"onehot index {idx} outside [0, {n})")
        state = np.zeros(n)
        state[idx] = 1.0
        return state
    if init_spec.startswith("cells:"):
        state = np.zeros(n)
        for token in init_spec.split(":", 1)[1].split(","):
            idx = int(token)
            if not 0 <= idx < n:
                raise ConfigError(f"cell index {idx} outside [0, {n})")
            state[idx] = 1.0
        return state
    raise ConfigError(f"unknown init {init_spec!r}")


# -- rendering -------------------------------------------------------------

def _integer_grid(history, width, height):
    import numpy as np

    if width * height != history.n:
        raise ConfigError(
            f"{width}x{height} grid does not match {history.n} cells"
        )
    vals = history.states
    if np.any(vals != np.rint(vals)) or vals.min() < 0:
        raise FileFormatError("rendering needs non-negative integer states")
    return vals.astype(np.int64)


def render_txt(history, width, height):
    """Dots and hashes for binary states, one digit per cell otherwise."""
    grids = _integer_grid(history, width, height)
    top = int(grids.max(initial=0))
    if top > 9:
        raise FileFormatError(
            f"txt rendering supports at most 10 states, max value is {top}"
        )
    if top <= 1:
        glyph = {0: ".", 1: "#"}.get
    else:
        glyph = str
    frames = []
    for frame in grids:
        rows = frame.reshape(height, width)
        frames.append("\n".join("".join(glyph(int(v)) for v in row) for row in rows))
    return "\n\n".join(frames) + "\n"


def render_pgm_files(history, width, height, prefix):
    grids = _integer_grid(history, width, height)
    maxval = max(1, int(grids.max(initial=0)))
    paths = []
    for step, frame in enumerate(grids):
        rows = frame.reshape(height, width)
        body = "\n".join(" ".join(str(int(v)) for v in row) for row in rows)
        path = f"{prefix}{step:04d}.pgm"
        with open(path, "w") as f:
            f.write(f"P2\n{width} {height}\n{maxval}\n{body}\n")
        paths.append(path)
    return paths


# -- command handlers ------------------------------------------------------

def _write_matrix(matrix, out):
    from .sparse import save_matrix_market

    save_matrix_market(out, matrix)
    print(f"rows={matrix.n_rows} cols={matrix.n_cols} nnz={matrix.nnz}")


def cmd_gen_ca1d(args):
    from .topology import GridSpec, NeighborhoodSpec1D, generate_ca_1d

    weights = [float(v) for v in args.stencil.split(",")]
    matrix = generate_ca_1d(
        GridSpec(args.width, 1, args.wrapped),
        NeighborhoodSpec1D(weights, args.center),
    )
    _write_matrix(matrix, args.out)


def cmd_gen_ca2d(args):
    from .topology import GridSpec, generate_ca_2d

    nb = load_stencil(args.stencil_file)
    matrix = generate_ca_2d(GridSpec(args.width, args.height, args.wrapped), nb)
    _write_matrix(matrix, args.out)


def cmd_gen_rbn(args):
    from .topology import PositionalBase, UniformWeights, generate_random_digraph

    if args.uniform is not None:
        scheme = UniformWeights(args.uniform[0], args.uniform[1])
    else:
        scheme = PositionalBase(args.base)
    matrix, _ = generate_random_digraph(
        args.nodes, args.in_degree, scheme, args.allow_self, args.seed
    )
    _write_matrix(matrix, args.out)


def cmd_gen_esn(args):
    from .systems import echo_state_network

    system = echo_state_network(args.nodes, args.density, args.rho, args.seed)
    _write_matrix(system.matrix, args.out)


def cmd_run(args):
    from .systems import build_system

    with open(args.config) as f:
        rc = run_config_from_text(f.read())
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
    if rc.render == "txt":
        text = render_txt(history, _render_width(rc), _render_height(rc))
        if rc.render_out:
            with open(rc.render_out, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    elif rc.render == "pgm":
        if not rc.render_out:
            raise ConfigError("render = pgm requires render_out prefix")
        render_pgm_files(history, _render_width(rc), _render_height(rc), rc.render_out)


def _render_width(rc):
    return rc.system.width if rc.system.width is not None else rc.system.n_cells


def _render_height(rc):
    return rc.system.height if rc.system.height is not None else 1


def cmd_render(args):
    from .engine import load_history

    history = load_history(args.states)
    if args.format == "txt":
        text = render_txt(history, args.width, args.height)
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    else:
        if not args.out_prefix:
            raise ConfigError("pgm rendering requires --out-prefix")
        paths = render_pgm_files(history, args.width, args.height, args.out_prefix)
        print(f"wrote {len(paths)} pgm files")


def cmd_pca(args):
    from .analysis import pca_project
    from .engine import load_history

    history = load_history(args.states)
    trajectory = pca_project(history, args.components)
    trajectory.save_csv(args.out)
    if args.svg:
        trajectory.save_svg(args.svg)
    variances = ",".join(repr(v) for v in trajectory.explained_variance)
    print(f"points={len(trajectory.points)} explained_variance={variances}")


def cmd_cycle(args):
    from .analysis import detect_cycle
    from .engine import load_history

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
    import time

    import numpy as np

    from . import backend
    from .systems import _child_seeds, random_sparse_uniform

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
    diff = float(np.max(np.abs(dense @ v - matrix.matvec(v)))) if args.n else 0.0
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
    bench.add_argument("--threads", type=int,
                       help="pin BLAS thread count (set before numpy loads)")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    _pin_threads(argv)
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except LatflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
