import numpy as np
import pytest

from latflow.cli import (
    main,
    make_initial_state,
    parse_config_text,
    parse_stencil_text,
    render_txt,
    run_config_from_text,
    run_config_to_text,
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
    from latflow.sparse import is_symmetric

    assert is_symmetric(load_matrix_market(out))


def test_gen_stencil_wider_than_grid_exits_3(tmp_path, capsys):
    code = run_cli(
        "gen", "ca1d", "--width", 2, "--stencil", "4,2,1",
        "--center", 1, "--wrapped", "-o", tmp_path / "m.mtx",
    )
    assert code == 3
    assert "error" in capsys.readouterr().err


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
    conf = tmp_path / "c.conf"
    conf.write_text("system = life\nwidth = 4\nheight = 4\nsteps = 1\nbogus = 1\n")
    assert run_cli("run", "--config", conf) == 3
    assert "bogus" in capsys.readouterr().err


def test_run_missing_file_exits_3(tmp_path, capsys):
    assert run_cli("run", "--config", tmp_path / "nope.conf") == 3
    assert "error" in capsys.readouterr().err


def test_config_round_trip():
    rc = run_config_from_text(
        "system = cml\nwidth = 12\neps = 0.25\nr = 3.9\nsteps = 7\n"
        "init = random\nseed = 3\nrecord = out.csv\nformat = csv\n"
    )
    text = run_config_to_text(rc)
    rc2 = run_config_from_text(text)
    assert run_config_to_text(rc2) == text
    assert rc2.system.kind == "cml"
    assert rc2.steps == 7


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
    with pytest.raises(ConfigError):
        make_initial_state(conf, "onehot:9")
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
