import struct

import numpy as np
import pytest

import oracles
from latflow.cli import (
    main,
    make_initial_state,
    parse_config_text,
    parse_stencil_text,
    render_pgm_files,
    render_txt,
    run_config_from_text,
)
from latflow.engine import StateHistory, load_history
from latflow.errors import ConfigError, FileFormatError
from latflow.sparse import load_matrix_market

VN_STENCIL = "0 1 0\n1 0 1\n0 1 0\ncenter 1 1\n"

GLIDER_CONF = """\
system = life
width = 7
height = 7
wrapped = true
steps = 28
init = cells:1,9,14,15,16
record = {record}
"""


def run_cli(*args):
    return main([str(a) for a in args])


def test_gen_ca1d_known_counts(tmp_path, capsys):
    out = tmp_path / "m.mtx"
    code = run_cli(
        "gen", "ca1d", "--width", 16, "--stencil", "4,2,1",
        "--center", 1, "--wrapped", "-o", out,
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "rows=16 cols=16 nnz=48"
    m = load_matrix_market(out)
    assert m.row(0) == {15: 4.0, 0: 2.0, 1: 1.0}


def test_gen_ca2d_symmetric(tmp_path, capsys):
    stencil = tmp_path / "vn.txt"
    stencil.write_text(VN_STENCIL)
    out = tmp_path / "m.mtx"
    code = run_cli(
        "gen", "ca2d", "--width", 4, "--height", 4,
        "--stencil-file", stencil, "--wrapped", "-o", out,
    )
    assert code == 0
    assert "nnz=64" in capsys.readouterr().out
    assert oracles.is_symmetric(load_matrix_market(out))


def test_gen_stencil_wider_than_grid_exits_3(tmp_path, capsys):
    code = run_cli(
        "gen", "ca1d", "--width", 2, "--stencil", "4,2,1",
        "--center", 1, "--wrapped", "-o", tmp_path / "m.mtx",
    )
    assert code == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("stencil, bad", [("1,x", "x"), ("1,,2", "")])
def test_gen_ca1d_bad_stencil_weight_exits_3(tmp_path, capsys, stencil, bad):
    code = run_cli("gen", "ca1d", "--width", 8, "--stencil", stencil, "--center", 0,
                   "-o", tmp_path / "m.mtx")
    assert code == 3
    assert capsys.readouterr().err == f"error: bad value for stencil weight: {bad!r}\n"


def test_gen_ca1d_non_finite_stencil_weight_exits_3(tmp_path, capsys):
    code = run_cli("gen", "ca1d", "--width", 8, "--stencil", "1,nan,1", "--center", 1,
                   "-o", tmp_path / "m.mtx")
    assert code == 3
    assert capsys.readouterr().err.startswith("error: non-finite weight nan")


def test_gen_ca1d_grid_too_large_to_build_exits_3(tmp_path, capsys):
    # 2**54 cells of 3 taps: more bytes than any address space holds
    code = run_cli("gen", "ca1d", "--width", 2**54, "--stencil", "1,1,1", "--center", 1,
                   "-o", tmp_path / "m.mtx")
    assert code == 3
    assert capsys.readouterr().err.startswith("error: no memory for the 3 taps")
    assert not (tmp_path / "m.mtx").exists()


def test_gen_rbn_and_esn(tmp_path, capsys):
    assert run_cli("gen", "rbn", "--nodes", 12, "--in-degree", 2,
                   "--seed", 5, "-o", tmp_path / "r.mtx") == 0
    assert run_cli("gen", "esn", "--nodes", 40, "--density", 0.1,
                   "--rho", 0.9, "--seed", 5, "-o", tmp_path / "e.mtx") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rows=12 cols=12 nnz=24"
    assert lines[1] == "rows=40 cols=40 nnz=160"


def test_missing_seed_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "rbn", "--nodes", 12, "--in-degree", 2,
                "-o", tmp_path / "r.mtx")
    assert exc.value.code == 2


def test_matrix_file_round_trip_byte_identical(tmp_path):
    p1 = tmp_path / "a.mtx"
    run_cli("gen", "ca1d", "--width", 9, "--stencil", "4,2,1", "--center", 1,
            "--wrapped", "-o", p1)
    m = load_matrix_market(p1)
    p2 = tmp_path / "b.mtx"
    from latflow.sparse import save_matrix_market

    save_matrix_market(p2, m)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_glider_final_row_equals_first(tmp_path):
    conf = tmp_path / "g.conf"
    record = tmp_path / "g.csv"
    conf.write_text(GLIDER_CONF.format(record=record))
    assert run_cli("run", "--config", conf) == 0
    h = load_history(record)
    assert len(h) == 29
    assert np.array_equal(h.states[28], h.states[0])


def test_run_zero_steps_single_row(tmp_path, capsys):
    conf = tmp_path / "c.conf"
    conf.write_text("system = elementary_ca\nwidth = 6\nrule = 110\nsteps = 0\n")
    assert run_cli("run", "--config", conf) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["0.0,0.0,0.0,0.0,0.0,0.0"]


def test_run_byte_identical_repeats(tmp_path):
    conf = tmp_path / "c.conf"
    record = tmp_path / "h.csv"
    conf.write_text(
        "system = elementary_ca\nwidth = 64\nrule = 110\nsteps = 64\n"
        f"init = onehot:32\nrecord = {record}\n"
    )
    run_cli("run", "--config", conf)
    first = record.read_bytes()
    run_cli("run", "--config", conf)
    assert record.read_bytes() == first


def test_run_unknown_config_key_exits_3(tmp_path, capsys):
    # kind and rule_number name SystemConfig fields, whose keys are system and rule
    for key in ("bogus", "kind", "rule_number"):
        conf = tmp_path / "c.conf"
        conf.write_text(f"system = life\nwidth = 4\nheight = 4\nsteps = 1\n{key} = 1\n")
        assert run_cli("run", "--config", conf) == 3
        assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"


# keys of SystemConfig fields that the kind's preset does not take; every
# kind takes seed, which init = random draws from
STRAY_KEYS = {
    "life": ("system = life\nwidth = 4\nheight = 4\nseed = 1\nsteps = 1\n",
             "rule = 999\nnodes = 7\n", "nodes, rule"),
    "elementary_ca": ("system = elementary_ca\nwidth = 8\nrule = 30\nsteps = 1\n",
                      "height = 2\n", "height"),
    "rbn": ("system = rbn\nnodes = 6\nin_degree = 2\nseed = 1\nsteps = 1\n",
            "width = 3\nwrapped = false\n", "width, wrapped"),
    "cml": ("system = cml\nwidth = 8\neps = 0.3\nr = 3.9\nsteps = 1\n", "rho = 0.9\n", "rho"),
    "esn": ("system = esn\nnodes = 8\ndensity = 0.5\nrho = 0.9\nseed = 1\nsteps = 1\n",
            "in_degree = 2\neps = 0.1\n", "eps, in_degree"),
}


@pytest.mark.parametrize("kind", STRAY_KEYS)
def test_run_config_key_the_kind_does_not_take_exits_3(tmp_path, capsys, kind):
    conf_text, stray, names = STRAY_KEYS[kind]
    conf = tmp_path / "c.conf"
    conf.write_text(conf_text)
    assert run_cli("run", "--config", conf) == 0
    capsys.readouterr()
    conf.write_text(conf_text + stray)
    assert run_cli("run", "--config", conf) == 3
    assert capsys.readouterr().err == f"error: {kind} does not take {names}\n"


ECA_CONF = "system = elementary_ca\nwidth = 8\nrule = 30\nsteps = 2\n"
RBN_CONF = "system = rbn\nnodes = 8\nsteps = 2\n"
MALFORMED_CONFIGS = {
    "onehot:abc": ECA_CONF + "init = onehot:abc\n",
    "onehot:": ECA_CONF + "init = onehot:\n",
    "onehot:1,2": ECA_CONF + "init = onehot:1,2\n",
    "cells:": ECA_CONF + "init = cells:\n",
    "cells:1,,2": ECA_CONF + "init = cells:1,,2\n",
    "cells:x": ECA_CONF + "init = cells:x\n",
    "seed = -1": RBN_CONF + "in_degree = 2\nseed = -1\n",
    "seed = -1, init = random": RBN_CONF + "in_degree = 2\nseed = -1\ninit = random\n",
    "esn seed = -1": "system = esn\nnodes = 8\ndensity = 0.5\nrho = 0.9\nseed = -1\nsteps = 1\n",
    "in_degree = -1": RBN_CONF + "in_degree = -1\nseed = 1\n",
    "width = -3": ECA_CONF.replace("width = 8", "width = -3"),
    "life width = -3": "system = life\nwidth = -3\nheight = 4\nsteps = 1\n",
    "nodes = -2": RBN_CONF.replace("nodes = 8", "nodes = -2") + "in_degree = 1\nseed = 1\n",
}


@pytest.mark.parametrize("case", MALFORMED_CONFIGS)
def test_malformed_run_config_exits_3(tmp_path, capsys, case):
    conf = tmp_path / "c.conf"
    conf.write_text(MALFORMED_CONFIGS[case])
    assert run_cli("run", "--config", conf) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_run_of_a_history_too_large_to_allocate_exits_3(tmp_path, capsys):
    # render needs the whole run in memory; without it the rows would stream
    conf = tmp_path / "c.conf"
    conf.write_text(f"system = elementary_ca\nwidth = 64\nrule = 30\nsteps = {2**52}\n"
                    "render = txt\n")
    assert run_cli("run", "--config", conf) == 3
    assert capsys.readouterr().err.startswith("error: no memory to record")


def test_a_streamed_lfst_of_2_32_rows_is_refused_before_any_step(tmp_path, capsys, monkeypatch):
    from latflow import backend, engine

    def stepping(*args):
        raise AssertionError("a step was taken")

    # a step is a call of the fused kernel or, per step, of apply_rule
    monkeypatch.setattr(backend, "_stencil_steps_u8", stepping)
    monkeypatch.setattr(engine, "apply_rule", stepping)
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "c.conf"
    conf.write_text(f"system = elementary_ca\nwidth = 8\nrule = 30\nsteps = {2**32 - 1}\n"
                    "record = h.lfst\n")
    assert run_cli("run", "--config", conf) == 3
    assert capsys.readouterr().err == (
        "error: LFST holds fewer than 2**32 rows and cells, not (4294967296, 8)\n")
    assert not (tmp_path / "h.lfst").exists()


def test_run_missing_file_exits_3(tmp_path, capsys):
    assert run_cli("run", "--config", tmp_path / "nope.conf") == 3
    assert "error" in capsys.readouterr().err


def test_config_round_trip():
    rc = run_config_from_text(
        "system = cml\nwidth = 12\neps = 0.25\nr = 3.9\nsteps = 7\n"
        "init = random\nseed = 3\nrecord = out.csv\nformat = csv\n"
    )
    assert rc.system.kind == "cml"
    assert rc.steps == 7


def test_config_parse_errors():
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        run_config_from_text("system = life\nwidth = 4\nheight = 4\n")  # no steps
    with pytest.raises(ConfigError):
        run_config_from_text(
            "system = life\nwidth = 4\nheight = 4\nsteps = 1\nformat = yaml\n"
        )
    # comments and blank lines are fine
    pairs = parse_config_text("# note\n\nsteps = 3  # trailing\n")
    assert pairs == {"steps": "3"}


def test_initial_state_specs():
    conf = run_config_from_text(
        "system = elementary_ca\nwidth = 8\nrule = 110\nsteps = 1\n"
    ).system
    assert np.array_equal(make_initial_state(conf, "zeros"), np.zeros(8))
    one = make_initial_state(conf, "onehot:3")
    assert one[3] == 1.0 and one.sum() == 1.0
    cells = make_initial_state(conf, "cells:1,2,5")
    assert np.array_equal(np.flatnonzero(cells), [1, 2, 5])
    with pytest.raises(ConfigError, match=r"^onehot index 9 outside \[0, 8\)$"):
        make_initial_state(conf, "onehot:9")
    with pytest.raises(ConfigError, match=r"^cell index -1 outside \[0, 8\)$"):
        make_initial_state(conf, "cells:2,-1")
    with pytest.raises(ConfigError):
        make_initial_state(conf, "random")  # no seed in config
    with pytest.raises(ConfigError):
        make_initial_state(conf, "diagonal")


def test_initial_state_random_is_seeded():
    conf = run_config_from_text(
        "system = rbn\nnodes = 10\nin_degree = 2\nseed = 4\nsteps = 1\n"
    ).system
    a = make_initial_state(conf, "random")
    b = make_initial_state(conf, "random")
    assert np.array_equal(a, b)
    assert set(np.unique(a)).issubset({0.0, 1.0})
    # continuous kinds draw from their map's interval: cml's [0, 1), esn's [-1, 1)
    for system, low in (("cml\nwidth = 50\neps = 0.3\nr = 3.9", 0.0),
                        ("esn\nnodes = 50\ndensity = 0.1\nrho = 0.9", -1.0)):
        conf = run_config_from_text(f"system = {system}\nseed = 4\nsteps = 1\n").system
        a = make_initial_state(conf, "random")
        assert np.array_equal(a, make_initial_state(conf, "random"))
        assert low <= a.min() < low + 0.1 and 0.9 < a.max() < 1.0


def test_stencil_parse():
    nb = parse_stencil_text(VN_STENCIL)
    assert nb.center == (1, 1)
    assert nb.weights.shape == (3, 3)
    with pytest.raises(FileFormatError):
        parse_stencil_text("0 1 0\n1 0 1\n")  # no center line
    with pytest.raises(FileFormatError):
        parse_stencil_text("0 1\n1 0 1\ncenter 1 1\n")  # ragged
    with pytest.raises(FileFormatError):
        parse_stencil_text("x y\ncenter 0 0\n")


def test_render_txt_all_dead():
    h = StateHistory(np.zeros((1, 4)))
    assert render_txt(h, 2, 2) == "..\n..\n"


def test_render_txt_glider_hashes(tmp_path, capsys):
    conf = tmp_path / "g.conf"
    record = tmp_path / "g.csv"
    conf.write_text(GLIDER_CONF.format(record=record).replace("steps = 28", "steps = 0"))
    run_cli("run", "--config", conf)
    capsys.readouterr()
    assert run_cli("render", "--states", record, "--width", 7, "--height", 7) == 0
    text = capsys.readouterr().out
    assert text.count("#") == 5
    rows = text.strip().splitlines()
    assert rows[0] == ".#....."
    assert rows[1] == "..#...."
    assert rows[2] == "###...."


def test_render_txt_digits_for_multistate():
    h = StateHistory(np.array([[0.0, 3.0, 9.0, 1.0]]))
    assert render_txt(h, 4, 1) == "0391\n"


def test_render_txt_rejects_wide_alphabets():
    h = StateHistory(np.array([[0.0, 12.0]]))
    with pytest.raises(FileFormatError):
        render_txt(h, 2, 1)


def test_render_txt_rejects_non_integer_states():
    h = StateHistory(np.array([[0.25, 1.0]]))
    with pytest.raises(FileFormatError):
        render_txt(h, 2, 1)


def test_render_grid_size_must_match(tmp_path, capsys):
    record = tmp_path / "h.csv"
    StateHistory(np.zeros((1, 6))).save_csv(record)
    assert run_cli("render", "--states", record, "--width", 4, "--height", 4) == 3


def test_render_pgm_files(tmp_path):
    record = tmp_path / "h.csv"
    StateHistory(np.array([[0.0, 1.0], [1.0, 1.0]])).save_csv(record)
    assert run_cli(
        "render", "--states", record, "--width", 2, "--height", 1,
        "--format", "pgm", "--out-prefix", tmp_path / "f_",
    ) == 0
    first = (tmp_path / "f_0000.pgm").read_text()
    assert first == "P2\n2 1\n1\n0 1\n"
    assert (tmp_path / "f_0001.pgm").read_text() == "P2\n2 1\n1\n1 1\n"


def test_render_round_trip_preserves_values(tmp_path):
    # run -> csv -> render digits reproduces the recorded trajectory
    conf = tmp_path / "c.conf"
    record = tmp_path / "h.csv"
    conf.write_text(
        "system = elementary_ca\nwidth = 8\nrule = 90\nsteps = 3\n"
        f"init = onehot:4\nrecord = {record}\n"
    )
    run_cli("run", "--config", conf)
    h = load_history(record)
    text = render_txt(h, 8, 1)
    grids = text.strip().split("\n\n")
    for t, grid in enumerate(grids):
        row = [1.0 if ch == "#" else 0.0 for ch in grid]
        assert np.array_equal(row, h.states[t])


def test_pca_command(tmp_path, capsys):
    record = tmp_path / "h.csv"
    rng = np.random.default_rng(0)
    StateHistory(rng.uniform(0, 1, (10, 5))).save_csv(record)
    out = tmp_path / "t.csv"
    svg = tmp_path / "t.svg"
    assert run_cli("pca", "--states", record, "--out", out, "--svg", svg) == 0
    assert out.read_text().splitlines()[0] == "step,pc1,pc2"
    assert svg.read_text().startswith("<svg")
    printed = capsys.readouterr().out
    assert "explained_variance=" in printed
    v1, v2 = map(float, printed.split("explained_variance=")[1].split(","))
    assert v1 >= v2 >= 0.0


def test_cycle_command_glider(tmp_path, capsys):
    conf = tmp_path / "g.conf"
    record = tmp_path / "g.csv"
    conf.write_text(GLIDER_CONF.format(record=record))
    run_cli("run", "--config", conf)
    capsys.readouterr()
    assert run_cli("cycle", "--states", record) == 0
    assert capsys.readouterr().out.strip() == "transient=0 period=28"


def test_cycle_command_constant(tmp_path, capsys):
    record = tmp_path / "h.csv"
    StateHistory(np.ones((4, 3))).save_csv(record)
    run_cli("cycle", "--states", record)
    assert capsys.readouterr().out.strip() == "transient=0 period=1"


def test_cycle_command_none_and_tol(tmp_path, capsys):
    record = tmp_path / "h.csv"
    StateHistory(np.array([[0.0], [1.0], [2.0]])).save_csv(record)
    run_cli("cycle", "--states", record)
    assert "no cycle within 2" in capsys.readouterr().out
    StateHistory(np.array([[0.0], [1e-8], [0.0]])).save_csv(record)
    run_cli("cycle", "--states", record, "--tol", 1e-6)
    assert "(approximate)" in capsys.readouterr().out


def test_bench_dense_favorable_regime(tmp_path, capsys):
    assert run_cli("bench", "--n", 64, "--density", 1.0,
                   "--repeats", 3, "--seed", 2) == 0
    out = capsys.readouterr().out
    assert "within 1e-12: yes" in out
    assert "anomalous" not in out  # density > 0.01, never flagged


def test_bench_skips_dense_baseline_above_cap(capsys):
    # 20000^2 float64 is 3 GiB: above the cap, so nothing dense is allocated
    assert run_cli("bench", "--n", 20000, "--density", 1e-6,
                   "--repeats", 2, "--seed", 3) == 0
    out = capsys.readouterr().out
    assert "dense baseline skipped" in out
    assert "dense mean" not in out


@pytest.mark.parametrize("args, message", [
    (("--n", 8, "--repeats", 0), "--repeats 0 must be at least 1"),
    (("--n", 8, "--repeats", -3), "--repeats -3 must be at least 1"),
    (("--n", 0), "n = 0 gives an empty matrix"),
])
def test_bench_refuses_empty_runs_with_exit_3(capsys, args, message):
    assert run_cli("bench", "--density", 0.5, "--seed", 1, *args) == 3
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_cycle_command_non_finite_lfst_exits_3(tmp_path, capsys):
    record = tmp_path / "h.lfst"
    StateHistory(np.array([[1.0, np.nan], [np.inf, 0.0]])).save_binary(record)
    assert run_cli("cycle", "--states", record) == 3
    assert "non-finite" in capsys.readouterr().err


def test_a_life_run_recorded_as_lfst_writes_bytes_that_read_as_its_csv(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    printed = {}
    for record in ("h.lfst", "h.csv"):
        (tmp_path / "run.cfg").write_text(
            "system = life\nwidth = 16\nheight = 16\nwrapped = true\nsteps = 120\n"
            f"init = random\nseed = 2\nrecord = {record}\n"
        )
        assert run_cli("run", "--config", "run.cfg") == 0
        capsys.readouterr()
        assert run_cli("cycle", "--states", record) == 0
        assert run_cli("render", "--states", record, "--width", 16, "--height", 16,
                       "--format", "txt") == 0
        printed[record] = capsys.readouterr().out
    raw = (tmp_path / "h.lfst").read_bytes()
    # the byte layout: its header, then one byte per cell of the 121 rows
    assert raw[:12] == struct.pack("<4sII", b"LFS8", 121, 256) and len(raw) == 12 + 121 * 256
    assert printed["h.lfst"] == printed["h.csv"]
    assert printed["h.csv"].startswith("transient=32 period=2\n")
    (tmp_path / "h.lfst").write_bytes(raw[:-1])
    assert run_cli("cycle", "--states", "h.lfst") == 3
    assert "expected 30976 payload bytes, found 30975" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pca", "cycle", "render"])
def test_non_utf8_state_file_exits_3(tmp_path, capsys, command):
    states = tmp_path / "f"
    states.write_bytes(b"LFSX\x85\x00\x00\x00\xff\xfe")
    extra = {"pca": ["--out", tmp_path / "p.csv"], "cycle": [],
             "render": ["--width", 2, "--height", 1]}[command]
    assert run_cli(command, "--states", states, *extra) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_non_utf8_config_and_stencil_exit_3(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_bytes(b"system = life\nsteps = 1\n# \xff\n")
    assert run_cli("run", "--config", conf) == 3
    stencil = tmp_path / "s.txt"
    stencil.write_bytes(b"0 1 0\n\xfe\ncenter 1 1\n")
    code = run_cli("gen", "ca2d", "--width", 4, "--height", 4,
                   "--stencil-file", stencil, "-o", tmp_path / "m.mtx")
    assert code == 3
    assert capsys.readouterr().err.count("not UTF-8") == 2


def _pgm_per_cell(grid, maxval):
    """A PGM frame formatted one cell at a time."""
    body = "\n".join(" ".join(str(int(v)) for v in row) for row in grid)
    return f"P2\n{grid.shape[1]} {grid.shape[0]}\n{maxval}\n{body}\n"


@pytest.mark.parametrize("top", [2, 9, 10, 120])
def test_render_pgm_bytes_match_per_cell_formatting(tmp_path, top):
    rng = np.random.default_rng(top)
    states = rng.integers(0, top + 1, size=(4, 15)).astype(float)
    states[0, 3] = top
    paths = render_pgm_files(StateHistory(states), 5, 3, str(tmp_path / "f_"))
    assert len(paths) == 4
    for path, row in zip(paths, states):
        with open(path, "rb") as f:
            assert f.read() == _pgm_per_cell(row.reshape(3, 5), top).encode()


def test_render_txt_matches_per_cell_formatting():
    states = np.random.default_rng(3).integers(0, 3, size=(3, 12)).astype(float)
    frames = ["\n".join("".join(str(int(v)) for v in row) for row in s.reshape(4, 3))
              for s in states]
    assert render_txt(StateHistory(states), 3, 4) == "\n\n".join(frames) + "\n"


def test_render_refuses_empty_history_and_non_positive_sides(tmp_path):
    with pytest.raises(FileFormatError, match="no states"):
        render_txt(StateHistory(np.zeros((0, 6))), 2, 3)
    with pytest.raises(ConfigError):
        render_txt(StateHistory(np.zeros((2, 6))), -2, -3)
    record = tmp_path / "h.lfst"
    StateHistory(np.zeros((0, 6))).save_binary(record)
    assert run_cli("render", "--states", record, "--width", 2, "--height", 3) == 3


# SHA-256 of the files and output of a seeded 16 x 16 life run, as the
# per-value CSV, render and cycle code wrote them
LIFE_16_DIGESTS = {
    "history.csv": "b3cc3afee0b5be4783f5be48316c0841d953897aa7dfad31b9cb3716788a4c9b",
    "render.txt": "f66df3d2e0e5d862c1849b903c889c87f55fbd1c7b6d7fb91ccff49426bea204",
    "pgm frames": "f2c37e2fec7c18d353bfcc7d880326e9bc17c8479cb4fe3b4232ff6abb685f47",
    "cycle stdout": "8ae38efddc2fccf6eb4dd1874bfe1549d8c09786551753e69038a9d66d36db38",
}


def test_seeded_life_run_cycle_render_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    import hashlib

    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(
        "system = life\nwidth = 16\nheight = 16\nwrapped = true\nsteps = 120\n"
        "init = random\nseed = 2\nrecord = history.csv\n"
    )
    assert run_cli("run", "--config", "run.cfg") == 0
    capsys.readouterr()
    assert run_cli("cycle", "--states", "history.csv") == 0
    cycle = capsys.readouterr().out
    assert cycle == "transient=32 period=2\n"
    grid = ["--states", "history.csv", "--width", 16, "--height", 16]
    assert run_cli("render", *grid, "--out", "render.txt") == 0
    assert run_cli("render", *grid, "--format", "pgm", "--out-prefix", "f_") == 0
    frames = sorted(tmp_path.glob("f_*.pgm"))
    assert len(frames) == 121
    digests = {
        "history.csv": hashlib.sha256((tmp_path / "history.csv").read_bytes()),
        "render.txt": hashlib.sha256((tmp_path / "render.txt").read_bytes()),
        "pgm frames": hashlib.sha256(b"".join(f.read_bytes() for f in frames)),
        "cycle stdout": hashlib.sha256(cycle.encode()),
    }
    assert {name: d.hexdigest() for name, d in digests.items()} == LIFE_16_DIGESTS
    capsys.readouterr()
    assert run_cli("pca", "--states", "history.csv", "--out", "pca.csv",
                   "--components", 3) == 0
    printed = capsys.readouterr().out.split("explained_variance=")[1]
    states = load_history(tmp_path / "history.csv").states
    expected = np.linalg.eigvalsh(np.cov(states, rowvar=False))[::-1][:3]
    assert np.max(np.abs(np.array(printed.split(","), dtype=float) - expected)) < 1e-10
