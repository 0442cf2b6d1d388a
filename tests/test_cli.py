import ast
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tokenize
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import strainkp
from strainkp import _blocktri, axis, kp_bulk, optics, qw
from strainkp import states as states_mod
from strainkp.cli import main
from strainkp.config import RunConfig
from strainkp.elasticity import StrainState, biaxial_strain, uniaxial_sweep
from strainkp.materials import default_parameter_table
from strainkp.tables import _CHUNK_CELLS, Grid, write_table

SMALL_CONFIG = """
[sweep]
stress_min_gpa = -2.0
stress_max_gpa = 2.0
steps = 5

[axis]
theta_steps = 4

[qw]
thicknesses_nm = 6
barrier_thickness_nm = 10
grid_points = 51
sweep_steps = 3

[emulation]
transition_steps = 5

[dipoles]
snapshot_stresses_gpa = 1.0
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return path


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def oracle_text(columns, rows, output_format):
    # the per-value formatter the writer must reproduce byte for byte
    if output_format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(format(float(v), ".9g") for v in row)
                  for row in rows]
        return "\n".join(lines) + "\n"
    payload = {"columns": list(columns),
               "rows": [[float(format(float(v), ".9g")) for v in row]
                        for row in rows]}
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


SPECIALS = (float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e21)
# rows of three cells in one piece of the writer
PIECE_ROWS = _CHUNK_CELLS // 3


def chunked_table(n_rows):
    """Random rows of three cells with the specials in the first and last
    row of the table and in the rows on both sides of the first piece
    boundary."""
    values = np.random.default_rng(n_rows).standard_normal((n_rows, 3))
    for i in {0, PIECE_ROWS - 1, PIECE_ROWS, n_rows - 1}:
        if i < n_rows:
            values[i] = np.roll(SPECIALS, i)[:3]
    return values


def chunked_grid(n_first, n_second):
    """A random grid with the specials on both axes and in the values of
    the first and last grid rows of every piece."""
    rng = np.random.default_rng(n_first * n_second)
    first, second = rng.standard_normal(n_first), rng.standard_normal(n_second)
    first[:len(SPECIALS)] = SPECIALS[:n_first]
    second[-len(SPECIALS):] = SPECIALS
    values = rng.standard_normal((n_first, n_second))
    rows_per_piece = max(1, PIECE_ROWS // n_second)
    for i in range(0, n_first, rows_per_piece):
        values[i, :len(SPECIALS)] = SPECIALS
        values[min(i + rows_per_piece, n_first) - 1, -len(SPECIALS):] \
            = SPECIALS
    return Grid(first, second, values)


WRITER_TABLES = {
    "special": [(float("nan"), float("inf"), -float("inf")),
                (-0.0, 5e-324, 1e-29), (1e21, 123456789.5, -2.5)],
    "float32_int": [(np.float32(0.1), np.float32(-3.3e-7), np.int64(7)),
                    (np.int32(-2), 3, np.float32(1e30))],
    "mixed_tuples": [(0.1, np.float64(2.0 / 3.0), 1),
                     [np.float64(-1e-300), 1.0 / 3.0, np.float32(0.5)]],
    # cells whose %.9g text is not JSON's float text: exponents 9 to 15,
    # integer-looking cells, and exponents of -308 and below (subnormals)
    "exponents": [(1e9, -2.5e12, 999999999.5), (9.87654321e15, 1e16, -1e-5),
                  (1e-308, 2.2250738585072014e-308, -3.3e-320),
                  (123456789.0, -7.0, 1.7976931348623157e308)],
    "ndarray": np.random.default_rng(7).standard_normal((6, 3))
    * np.logspace(-30, 30, 6)[:, None],
    "empty": [],
    # grid tables: the same specials on both axes and in the values
    "grid_special": Grid(
        np.array([float("nan"), -0.0, 5e-324, 1e21]),
        np.array([float("inf"), -float("inf"), 1e21, -0.0, 5e-324]),
        np.array([[float("nan"), float("inf"), -float("inf"), -0.0, 5e-324],
                  [1e21, 0.1, -2.5, 1e-29, 123456789.5],
                  [-0.0, float("nan"), 2.0 / 3.0, 1e21, -1e-300],
                  [5e-324, -float("inf"), 7.0, float("inf"), -0.0]])),
    "grid_1x1": Grid(np.array([0.5]), np.array([-0.0]),
                     np.array([[float("nan")]])),
    "grid_1xn": Grid(np.array([1e21]),
                     np.array([5e-324, -float("inf"), 2.0 / 3.0]),
                     np.array([[float("inf"), -0.0, 1e-29]])),
    # around the writer's piece boundary, and grids over several pieces
    "chunk_minus_row": chunked_table(PIECE_ROWS - 1),
    "chunk": chunked_table(PIECE_ROWS),
    "chunk_plus_row": chunked_table(PIECE_ROWS + 1),
    "grid_chunks": chunked_grid(13, PIECE_ROWS // 5 + 1),
    "grid_long_rows": chunked_grid(3, PIECE_ROWS + 7),
}


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(WRITER_TABLES))
def test_write_table_matches_per_value_oracle(tmp_path, name,
                                              output_format):
    columns = ("a", "b", "c")
    rows = WRITER_TABLES[name]
    path = tmp_path / "sub" / f"t.{output_format}"
    write_table(path, columns, rows, output_format)
    if isinstance(rows, Grid):
        rows = [(a, b, rows.values[i, j])
                for i, a in enumerate(rows.first)
                for j, b in enumerate(rows.second)]
    assert path.read_bytes() \
        == oracle_text(columns, rows, output_format).encode("utf-8")


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_write_table_memory_is_bounded(tmp_path, output_format):
    # a 361 x 1001 map is 361 thousand rows and over 11 MB of text; the
    # writer's peak stays under the 3 MB the README states (measured
    # 0.66-1.07 MB here and 0.98-1.49 MB at 361 x 4001, whose text is
    # 46 MB), and the file is over three times that, so a writer that held
    # the whole text would fail
    rng = np.random.default_rng(3)
    grid = Grid(np.linspace(0.0, np.pi / 2.0, 361),
                np.linspace(-0.02, 0.02, 1001), rng.random((361, 1001)))
    path = tmp_path / f"map.{output_format}"
    tracemalloc.start()
    try:
        write_table(path, ("theta_rad", "strain_xx", "p_hh"), grid,
                    output_format)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6
    assert path.stat().st_size > 3 * 3e6


def test_import_loads_no_thread_pool_or_scipy():
    # the thread pool is imported only by a threaded sweep, and no module
    # imports scipy
    src = os.path.dirname(os.path.dirname(strainkp.__file__))
    code = ("import sys, strainkp, strainkp.cli; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] in ('concurrent', 'scipy')))")
    printed = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
    assert printed.strip() == "[]"


def test_bulk_commands_wake_no_blas_thread(tmp_path):
    # no product on the bulk path grows with the sweep into a threaded
    # BLAS call: woken, an OpenBLAS worker spins on the second core and
    # slows the rest of the command.  CPU time of threads other than the
    # main one stays near zero even with two BLAS threads allowed.
    # OpenBLAS starts its worker when numpy loads, and the worker spins
    # about 0.1 s before it sleeps (30-80 ms of CPU): the child waits until
    # no other thread runs, so that spin is not charged to the first
    # command.  It prints one "command seconds" line per command, so a
    # failure names the command that woke a thread
    src = os.path.dirname(os.path.dirname(strainkp.__file__))
    code = (
        "import sys, time\n"
        "from strainkp.cli import main\n"
        "other = time.process_time() - time.thread_time()\n"
        "for _ in range(100):\n"
        "    time.sleep(0.05)\n"
        "    other, before = time.process_time() - time.thread_time(), other\n"
        "    if other - before < 1e-4:\n"
        "        break\n"
        "for cmd in ('mixing-curve', 'mixing-map', 'dipoles'):\n"
        "    start = time.process_time() - time.thread_time()\n"
        "    assert main([cmd, '--steps', '4001', '--out', sys.argv[1]]) "
        "== 0\n"
        "    print(cmd, time.process_time() - time.thread_time() - start)\n")
    threads = {name: "2" for name in ("OPENBLAS_NUM_THREADS",
                                      "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    printed = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], check=True,
        capture_output=True, text=True,
        env={**os.environ, **threads, "PYTHONPATH": src}).stdout
    other = {cmd: float(s) for cmd, s in map(str.split, printed.splitlines())}
    assert sum(other.values()) < 5e-3, f"other-thread CPU (s): {other}"


def test_every_module_stays_under_the_parser_buffer():
    # compiling a module of 4096 or more tokens doubles CPython's parser
    # buffers, and a process that imports the package from source (no
    # bytecode cache, as the benchmark workers do) keeps that peak in its
    # RSS, so every module stays below it; tokenize counts every token
    # type, more than the parser keeps, so the bound is safe
    src = Path(strainkp.__file__).parent
    for path in sorted(src.glob("*.py")):
        with path.open("rb") as f:
            count = sum(1 for _ in tokenize.tokenize(f.readline))
        assert count < 4096, f"{path.name} has {count} tokens"


SNAPSHOTS_GPA = (-0.888, -0.194, -0.03, 0.0, 1.0)


def test_grid_outputs_are_theta_major(tmp_path):
    # mixing-map and the angular-density snapshots against rows built one
    # grid point at a time, theta outermost; each snapshot against the
    # public recipe: two angular_density calls, their mean, normalized on
    # the grid
    cfg = tmp_path / "run.ini"
    cfg.write_text("[sweep]\nsteps = 3\n[axis]\ntheta_steps = 4\n"
                   "phi_deg = 30\n[dipoles]\nsnapshot_stresses_gpa = "
                   + ", ".join(map(str, SNAPSHOTS_GPA)) + "\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["mixing-map", "--config", str(cfg), "--out", str(out)]) \
        == 0
    for output_format in ("csv", "json"):
        assert main(["dipoles", "--config", str(cfg), "--out", str(out),
                     "--format", output_format]) == 0

    p = default_parameter_table()["GaAs"]
    pre = biaxial_strain(-0.12, p)
    th, strain_xx, phh = axis.mixing_map(
        np.linspace(-2.0, 2.0, 3), pre, p,
        thetas=axis.default_theta_grid(4), phi=np.radians(30.0))
    rows = [(th[i], strain_xx[j], phh[i, j])
            for i in range(len(th)) for j in range(len(strain_xx))]
    assert (out / "mixing_map.csv").read_text(encoding="utf-8") \
        == oracle_text(("theta_rad", "strain_xx", "p_hh"), rows, "csv")

    strains = uniaxial_sweep(SNAPSHOTS_GPA, p, pre)
    for sigma, strain in zip(SNAPSHOTS_GPA, strains):
        doublet = kp_bulk.top_valence_doublet(StrainState(*strain), p)
        dens = [optics.angular_density(s) for s in doublet]
        avg = 0.5 * (dens[0].density + dens[1].density)
        avg = avg / np.sum(avg * dens[0].weights)
        rows = [(dens[0].theta[i], dens[0].phi[j], avg[i, j])
                for i in range(dens[0].theta.size)
                for j in range(dens[0].phi.size)]
        for output_format in ("csv", "json"):
            name = f"angular_density_{sigma:g}gpa.{output_format}"
            assert (out / name).read_text(encoding="utf-8") == oracle_text(
                ("theta_rad", "phi_rad", "density"), rows, output_format)

    # the default empty snapshot list writes the sweep alone
    cfg.write_text("[dipoles]\nsnapshot_stresses_gpa =\n", encoding="utf-8")
    assert main(["dipoles", "--config", str(cfg), "--steps", "3",
                 "--out", str(tmp_path / "none")]) == 0
    assert [f.name for f in (tmp_path / "none").iterdir()] \
        == ["dipole_sweep.csv"]


def test_amplify_factor(capsys):
    assert main(["amplify", "--finger-length-mm", "1.5",
                 "--gap-um", "20"]) == 0
    assert capsys.readouterr().out.strip() == "150"


def test_amplify_membrane_strain(capsys):
    assert main(["amplify", "--finger-length-mm", "1.5", "--gap-um", "60",
                 "--piezo-strain", "3e-4"]) == 0
    assert capsys.readouterr().out.strip() == "0.015"


def test_amplify_invalid_geometry(capsys):
    # a negative or infinite length and a piezo strain that is not finite
    # are rejected, never printed as inf or nan
    for args in (["--finger-length-mm", "-1", "--gap-um", "20"],
                 ["--finger-length-mm", "inf", "--gap-um", "10"],
                 ["--finger-length-mm", "1.5", "--gap-um", "20",
                  "--piezo-strain", "nan"],
                 ["--finger-length-mm", "1.5", "--gap-um", "20",
                  "--piezo-strain", "inf"]):
        assert main(["amplify", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err


@pytest.mark.parametrize("flag", [
    ["--config", "/nonexistent.ini"],
    ["--out", "somewhere"],
    ["--format", "json"],
    ["--steps", "1"],
    ["--threads", "-5"],
])
def test_amplify_rejects_sweep_flags(flag, capsys):
    # amplify reads no config and writes no files: the sweep flags are
    # errors, not silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["amplify", "--finger-length-mm", "1.5", "--gap-um", "20",
              *flag])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_mixing_curve_default_row_count(tmp_path):
    out = tmp_path / "out"
    assert main(["mixing-curve", "--out", str(out)]) == 0
    for name in ("mixing_curve_z.csv", "mixing_curve_x.csv"):
        columns, rows = read_rows(out / name)
        assert columns == ["strain_xx", "p_hh", "p_lh", "p_so"]
        assert len(rows) == 201


def test_mixing_curve_steps_override(tmp_path):
    out = tmp_path / "out"
    assert main(["mixing-curve", "--out", str(out), "--steps", "2"]) == 0
    _, rows = read_rows(out / "mixing_curve_z.csv")
    assert len(rows) == 2


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns the list of its calls."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_mixing_curve_solves_the_sweep_once(tmp_path, monkeypatch):
    # the z and x curves project one batched eigensolve of the sweep
    calls = counting(monkeypatch, axis, "_doublet_stack")
    assert main(["mixing-curve", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("small, solves", [
    # default: 21 points through 0 GPa for each of the two wells, whose
    # 0 GPa solve serves the convergence check, and one doubled grid each
    (False, 2 * 21 + 2),
    # one 6 nm well and a 4-point sweep that misses 0 GPa: one more solve
    # on the base grid
    (True, 4 + 2),
])
def test_qw_solve_count(tmp_path, config, monkeypatch, small, solves):
    calls = counting(monkeypatch, qw, "solve_qw")
    args = ["--config", str(config), "--steps", "4"] if small else []
    assert main(["qw", "--out", str(tmp_path / "out")] + args) == 0
    assert len(calls) == solves


@pytest.mark.parametrize("command, field", [
    ("mixing-curve", "sweep steps"),
    ("qw", "qw sweep_steps"),
])
def test_steps_flag_below_two_exit_2(tmp_path, config, command, field,
                                     capsys):
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out),
                 "--steps", "1"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert f"{field} must be at least 2, got 1" in err


def test_flags_override_config_before_validation(tmp_path):
    # the config alone is invalid; the flags replace the invalid values
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_CONFIG.replace("sweep_steps = 3", "sweep_steps = 1")
                   + "[run]\noutput_format = xml\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["qw", "--config", str(cfg), "--out", str(out)]) == 2
    assert main(["qw", "--config", str(cfg), "--out", str(out),
                 "--steps", "3", "--format", "json"]) == 0
    payload = json.loads((out / "qw_mixing_6nm.json").read_text())
    assert len(payload["rows"]) == 3
    # --steps of qw sets the well sweep only
    payload = json.loads((out / "qw_transition_energy.json").read_text())
    assert len(payload["rows"]) == 5


def test_mixing_curve_json_mirror(tmp_path, config):
    out = tmp_path / "out"
    assert main(["mixing-curve", "--config", str(config), "--out", str(out),
                 "--format", "json"]) == 0
    payload = json.loads((out / "mixing_curve_z.json").read_text())
    assert payload["columns"] == ["strain_xx", "p_hh", "p_lh", "p_so"]
    assert len(payload["rows"]) == 5
    csv_out = tmp_path / "out_csv"
    assert main(["mixing-curve", "--config", str(config),
                 "--out", str(csv_out)]) == 0
    _, rows = read_rows(csv_out / "mixing_curve_z.csv")
    for json_row, csv_row in zip(payload["rows"], rows):
        assert json_row == [float(cell) for cell in csv_row]


def test_mixing_map_dimensions(tmp_path, config):
    out = tmp_path / "out"
    assert main(["mixing-map", "--config", str(config),
                 "--out", str(out)]) == 0
    columns, rows = read_rows(out / "mixing_map.csv")
    assert columns == ["theta_rad", "strain_xx", "p_hh"]
    assert len(rows) == 4 * 5


def test_mixing_map_edge_columns_match_curve_files(tmp_path, config):
    out = tmp_path / "out"
    assert main(["mixing-map", "--config", str(config),
                 "--out", str(out)]) == 0
    assert main(["mixing-curve", "--config", str(config),
                 "--out", str(out)]) == 0
    _, map_rows = read_rows(out / "mixing_map.csv")
    _, z_rows = read_rows(out / "mixing_curve_z.csv")
    _, x_rows = read_rows(out / "mixing_curve_x.csv")
    thetas = sorted({row[0] for row in map_rows})
    z_edge = [row[2] for row in map_rows if row[0] == thetas[0]]
    x_edge = [row[2] for row in map_rows if row[0] == thetas[-1]]
    assert z_edge == [row[1] for row in z_rows]
    assert x_edge == [row[1] for row in x_rows]


def test_qw_outputs(tmp_path, config):
    out = tmp_path / "out"
    assert main(["qw", "--config", str(config), "--out", str(out)]) == 0
    columns, rows = read_rows(out / "qw_mixing_6nm.csv")
    assert columns == ["strain_xx", "p_hh_z", "p_lh_z", "p_so_z",
                       "p_hh_x", "p_lh_x", "p_so_x", "converged"]
    assert len(rows) == 3
    middle = [float(c) for c in rows[1]]
    assert middle[0] == 0.0
    assert middle[1] == pytest.approx(1.0, abs=1e-9)  # pure HH_z row
    assert middle[7] in (0.0, 1.0)
    columns, rows = read_rows(out / "qw_transition_energy.csv")
    assert columns == ["strain_xx", "transition_ev"]
    assert len(rows) == 5


def test_dipoles_outputs(tmp_path, config):
    out = tmp_path / "out"
    assert main(["dipoles", "--config", str(config), "--out", str(out)]) == 0
    columns, rows = read_rows(out / "dipole_sweep.csv")
    assert columns == list(("strain_xx", "s_x", "s_y", "s_z",
                            "rate_x_ghz", "rate_y_ghz", "rate_z_ghz"))
    assert len(rows) == 5
    zero_row = [float(c) for c in rows[2]]
    assert zero_row[1] == pytest.approx(0.5, abs=1e-9)
    assert zero_row[2] == pytest.approx(0.5, abs=1e-9)
    assert zero_row[3] == pytest.approx(0.0, abs=1e-9)
    snapshot = out / "angular_density_1gpa.csv"
    columns, rows = read_rows(snapshot)
    assert columns == ["theta_rad", "phi_rad", "density"]
    assert len(rows) == 90 * 180
    total = sum(float(r[2]) for r in rows)
    assert total > 0


def test_each_table_is_one_public_call(tmp_path, config):
    # the CSV bytes of the mixing curves, the well sweep (all but its
    # converged column) and a snapshot density, rebuilt from one public
    # call each and oracle_text's %.9g cells
    out = tmp_path / "out"
    for command in ("mixing-curve", "qw", "dipoles"):
        assert main([command, "--config", str(config), "--out", str(out)]) \
            == 0
    table = default_parameter_table()
    p = table["GaAs"]
    pre = biaxial_strain(-0.12, p)
    axes = (axis.QuantizationAxis(0.0), axis.QuantizationAxis(math.pi / 2))

    z, x = axis.mixing_curve(np.linspace(-2.0, 2.0, 5), pre, axes, p)
    for name, rows in (("z", z), ("x", x)):
        assert (out / f"mixing_curve_{name}.csv").read_text() \
            == oracle_text(axis.MIXING_CURVE_COLUMNS, rows.tolist(), "csv")

    (rows, _), = qw.qw_mixing_vs_strain(
        [qw.QwGeometry(6.0, 10.0, grid_points=51)],
        np.linspace(-2.0, 2.0, 3), axes, table)
    lines = (out / "qw_mixing_6nm.csv").read_text().splitlines()
    assert "".join(",".join(line.split(",")[:7]) + "\n" for line in lines) \
        == oracle_text(("strain_xx", "p_hh_z", "p_lh_z", "p_so_z", "p_hh_x",
                        "p_lh_x", "p_so_x"), rows.tolist(), "csv")

    (strain,) = uniaxial_sweep([1.0], p, pre)
    d = optics.angular_density(
        kp_bulk.top_valence_doublet(StrainState(*strain), p))
    density = d.density / d.integrate()
    assert (out / "angular_density_1gpa.csv").read_text() == oracle_text(
        ("theta_rad", "phi_rad", "density"),
        [(t, f, density[i, j]) for i, t in enumerate(d.theta.tolist())
         for j, f in enumerate(d.phi.tolist())], "csv")


# the modules of the command-line front end: commands, config schema and
# table writer
CLI_FILES = [Path(module.__file__)
             for module in (strainkp.cli, strainkp.config, strainkp.tables)]


def test_cli_reads_no_private_library_name():
    # the CLI runs the public library: no `module._name` read of a
    # strainkp module, and no private name imported from one, in any of
    # its modules
    modules, private = set(), []
    for path in CLI_FILES:
        tree = ast.parse(path.read_text("utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("strainkp")):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        private.append(f"{path.name}: {alias.name}")
                    if node.module in (None, "strainkp"):
                        imported.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in imported \
                    and node.attr.startswith("_"):
                private.append(f"{path.name}: {node.value.id}.{node.attr}")
        modules |= imported
    assert modules >= {"axis_mod", "kp_bulk", "optics", "qw"}
    assert private == []


def test_every_exported_name_has_a_user():
    # the package namespace is the public surface: each name in it but the
    # submodules is used by the CLI, the acceptance tests or the benchmark
    # worker, or named in the README
    root = Path(__file__).resolve().parents[1]
    used = set()
    for path in (*CLI_FILES, root / "tests" / "test_acceptance.py",
                 root / "bench" / "worker.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    named = set(re.findall(r"\w+", (root / "README.md").read_text("utf-8")))
    exported = [name for name, value in vars(strainkp).items()
                if not name.startswith("_") and not inspect.ismodule(value)]
    assert "top_valence_doublet" in exported
    assert [name for name in exported if name not in used | named] == []


def test_determinism_byte_identical(tmp_path, config):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["mixing-curve", "--config", str(config),
                     "--out", str(out)]) == 0
    for name in ("mixing_curve_z.csv", "mixing_curve_x.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("threads, message", [
    ("0", "must be at least 1, got 0"),
    ("-5", "must be at least 1, got -5"),
    ("two", "not an integer: 'two'"),
])
def test_invalid_threads_exit_2(tmp_path, threads, message, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["mixing-curve", "--steps", "3", "--out", str(out),
              "--threads", threads])
    assert exc.value.code == 2
    assert not out.exists()
    assert f"--threads: {message}" in capsys.readouterr().err


def test_threads_do_not_change_output(tmp_path):
    # qw is the one command that reads --threads: its sweep points run on
    # the thread pool and every file keeps its bytes
    cfg = tmp_path / "run.ini"
    cfg.write_text("[qw]\nthicknesses_nm = 6, 4\nbarrier_thickness_nm = 10\n"
                   "grid_points = 51\nsweep_steps = 5\n", encoding="utf-8")
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["qw", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0
        written[threads] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert sorted(written["1"]) == ["qw_mixing_4nm.csv", "qw_mixing_6nm.csv",
                                    "qw_transition_energy.csv"]
    assert written["2"] == written["1"]


# (config text, message); {tmp} is the test's directory, which holds a
# parameter file without a section header
INVALID_CONFIGS = [
    ("[sweep]\nsteps = 1\n", "sweep steps must be at least 2, got 1"),
    ("[sweep]\nstress_min_gpa = 2.0\nstress_max_gpa = -2.0\n",
     "sweep needs stress_min_gpa < stress_max_gpa"),
    ("[run]\nmaterial = Unobtainium\n",
     "material 'Unobtainium' not in parameter table"),
    ("[bogus]\nkey = 1\n", "unknown config section [bogus]"),
    ("[sweep]\nstress_min_gpa = fast\n",
     "[sweep] stress_min_gpa: not a number: 'fast'"),
    ("[qw]\ngrid_points = 50\n",
     "invalid qw geometry: grid must have at least 51 points"),
    ("not an ini file", "cannot parse config"),
    ("[sweep]\nsteps = 2.5\n", "[sweep] steps: not an integer: '2.5'"),
    ("[sweep]\nstress_min_gpa = inf\n",
     "[sweep] stress_min_gpa: must be finite"),
    ("[sweep]\nstress_steps = 5\n",
     "unknown config key 'stress_steps' in [sweep]"),
    ("[run]\nparameter_file = {tmp}/missing.ini\n",
     "cannot load parameter table: [Errno 2]"),
    ("[run]\nparameter_file = {tmp}/headerless.ini\n",
     "cannot load parameter table: cannot parse parameter table"),
]


@pytest.mark.parametrize("body, message", INVALID_CONFIGS,
                         ids=[body for body, _ in INVALID_CONFIGS])
def test_invalid_configs_exit_2(tmp_path, body, message, capsys):
    (tmp_path / "headerless.ini").write_text("eg_ev = 1.5\n",
                                             encoding="utf-8")
    bad = tmp_path / "bad.ini"
    bad.write_text(body.replace("{tmp}", str(tmp_path)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["mixing-curve", "--config", str(bad),
                 "--out", str(out)]) == 2
    assert not out.exists()  # no partial outputs
    assert f"configuration error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("command, body, message", [
    # the rate scale 1e3/(tau/2) overflows: Infinity and NaN in the table
    ("dipoles", "[calibration]\nreference_lifetime_ps = 1e-320\n",
     "reference_lifetime_ps: reference lifetime must be positive"),
    # w + 2b overflows: a NaN grid and 200 iterations, then exit 3
    ("qw", "[qw]\nbarrier_thickness_nm = 1e308\n", "finite length"),
], ids=["lifetime", "barrier"])
def test_overflowing_inputs_exit_2_before_any_solve(
        tmp_path, monkeypatch, capsys, command, body, message,
        output_format):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validation")

    monkeypatch.setattr(qw, "solve_qw", no_solve)
    monkeypatch.setattr(optics, "dipole_sweep", no_solve)
    bad = tmp_path / "bad.ini"
    bad.write_text(body, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(bad), "--format", output_format,
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


def test_qw_rejects_non_gaas_material(tmp_path, capsys):
    # the well is GaAs; another material's stiffness must not drive it
    bad = tmp_path / "alas.ini"
    bad.write_text("[run]\nmaterial = AlAs\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["qw", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err and "[run] material" in err


@pytest.mark.parametrize("thickness", ["1e-300", "0.2"])
def test_well_thinner_than_two_spacings_exit_2(tmp_path, capsys,
                                               monkeypatch, thickness):
    # on the default 301-point grid only the centre node lies inside such
    # a well, which was solved as a one-node well; it is rejected before
    # any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the config was rejected")

    monkeypatch.setattr(qw, "solve_qw", no_solve)
    bad = tmp_path / "thin.ini"
    bad.write_text(f"[qw]\nthicknesses_nm = {thickness}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["qw", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    two_h = 2.0 * (float(thickness) + 40.0) / 302
    assert "configuration error: [qw] thicknesses_nm" in err
    assert f"{thickness} nm" in err and f"(2h = {two_h:.6g} nm)" in err


@pytest.mark.parametrize("key", ["cb_shift_mev", "hh_shift_mev",
                                 "lh_shift_mev"])
def test_negative_emulation_shift_exit_2(tmp_path, capsys, monkeypatch,
                                         key):
    # the shifts are confinement energies: a negative one is rejected when
    # the config is validated, before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the config was rejected")

    monkeypatch.setattr(qw, "solve_qw", no_solve)
    monkeypatch.setattr(qw, "emulated_transition_energies", no_solve)
    bad = tmp_path / "shift.ini"
    bad.write_text(f"[emulation]\n{key} = -9.1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["qw", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"configuration error: [emulation] {key[:-4]} must be a finite " \
        f"confinement energy >= 0, got -0.0091" in err


def test_well_of_two_spacings_runs(tmp_path):
    # 0.3 nm holds the centre node and both neighbours on the default grid
    cfg = tmp_path / "run.ini"
    cfg.write_text("[qw]\nthicknesses_nm = 0.3\nsweep_steps = 2\n"
                   "[emulation]\ntransition_steps = 2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["qw", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "qw_mixing_0.3nm.csv").exists()


@pytest.mark.parametrize("command, old, new, clash", [
    ("qw", "thicknesses_nm = 6", "thicknesses_nm = 12, 12.0000001, 4",
     "qw_mixing_12nm.csv"),
    ("dipoles", "snapshot_stresses_gpa = 1.0",
     "snapshot_stresses_gpa = -1.0, -1.0000001, 0.5",
     "angular_density_-1gpa.csv"),
], ids=["qw", "dipoles"])
def test_colliding_output_names_exit_2(tmp_path, command, old, new, clash,
                                       capsys, monkeypatch):
    # file names keep 6 significant digits, so these two configured values
    # would share one file and one table would be lost; the config is
    # rejected before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the config was rejected")

    monkeypatch.setattr(qw, "solve_qw", no_solve)
    monkeypatch.setattr(optics, "dipole_sweep", no_solve)
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_CONFIG.replace(old, new), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err and clash in err


@pytest.mark.parametrize("command, body, args, message", [
    # 745 GiB of mixing map: numpy's allocation error and a traceback
    ("mixing-map", "[sweep]\nsteps = 100000000000\n", [],
     "sweep steps must be at most 100001, got 100000000000"),
    ("dipoles", "", ["--steps", "100002"],
     "sweep steps must be at most 100001, got 100002"),
    ("mixing-map", "[axis]\ntheta_steps = 362\n", [],
     "axis theta_steps must be at most 361, got 362"),
    ("qw", "[qw]\ngrid_points = 10003\n", [],
     "qw grid_points must be at most 10001, got 10003"),
    ("qw", "", ["--steps", "10002"],
     "qw sweep_steps must be at most 10001, got 10002"),
    ("qw", "[emulation]\ntransition_steps = 100002\n", [],
     "emulation transition_steps must be at most 100001, got 100002"),
    # the lists: one table, or one 90 x 180 density, held per value
    ("qw", "[qw]\nthicknesses_nm = "
     + ", ".join(str(t) for t in range(1, 1003)) + "\n", [],
     "the number of qw thicknesses_nm values must be at most 1001, got 1002"),
    ("qw", "[qw]\nthicknesses_nm =\n", [],
     "the number of qw thicknesses_nm values must be at least 1, got 0"),
    ("dipoles", "[dipoles]\nsnapshot_stresses_gpa = "
     + ", ".join(str(s / 1000) for s in range(1002)) + "\n", [],
     "the number of dipoles snapshot_stresses_gpa values must be at most "
     "1001, got 1002"),
], ids=["steps", "steps-flag", "theta", "grid", "qw-steps", "transition",
        "thicknesses", "no-thickness", "snapshots"])
def test_work_sizes_over_their_bound_exit_2(tmp_path, command, body, args,
                                           message, capsys, monkeypatch):
    # every size that sets the work of a run has an upper bound, checked
    # when the config is validated, before any array of that size
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the config was rejected")

    for module, name in ((axis, "mixing_curve"), (axis, "mixing_map"),
                         (optics, "dipole_sweep"),
                         (optics, "angular_density"),
                         (kp_bulk, "top_valence_doublet"),
                         (qw, "qw_mixing_vs_strain"), (qw, "solve_qw"),
                         (qw, "emulated_transition_energies")):
        monkeypatch.setattr(module, name, no_solve)
    cfg = tmp_path / "run.ini"
    cfg.write_text(body, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 *args]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert "Traceback" not in err


def test_every_work_size_is_bounded_and_its_bounds_validate():
    # each int field sets an amount of work; its bounds themselves are
    # valid configs, so no bound contradicts a library check
    sizes = [f for f in dataclasses.fields(RunConfig) if f.type == "int"]
    assert {f.name for f in sizes} == {
        "steps", "theta_steps", "qw_grid_points", "qw_sweep_steps",
        "transition_steps"}
    for f in sizes:
        low, high = f.metadata["bounds"]
        assert high is not None, f.name
        for value in (low, high):
            if value is not None:
                dataclasses.replace(RunConfig(), **{f.name: value}).validate()
    # each list field sets a number of tables held until they are written;
    # its length bound is valid too, with values of distinct file names
    lists = [f for f in dataclasses.fields(RunConfig) if f.type == "tuple"]
    assert {f.name for f in lists} == {"qw_thicknesses_nm",
                                       "snapshot_stresses_gpa"}
    for f in lists:
        _, high = f.metadata["bounds"]
        assert high is not None, f.name
        values = tuple(float(v) for v in range(1, high + 1))
        dataclasses.replace(RunConfig(), **{f.name: values}).validate()


def test_numerical_failure_exit_3(tmp_path, config, monkeypatch, capsys):
    # a doublet check that no pair can pass stands in for a crossing or
    # split doublet: a numerical failure, not a configuration error
    monkeypatch.setattr(states_mod, "_DEGENERACY_ATOL", -1)
    assert main(["mixing-curve", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_qw_eigensolver_failure_exit_3(tmp_path, config, monkeypatch,
                                       capsys):
    # one subspace-iteration step from the seeded block cannot converge
    monkeypatch.setattr(_blocktri, "_MAX_ITERATIONS", 1)
    assert main(["qw", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "did not converge" in err
    assert "residual" in err


def test_unwritable_output_exit_4(tmp_path, config, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert main(["mixing-curve", "--config", str(config),
                 "--out", str(blocker / "out")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path):
    assert main(["mixing-curve", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "out")]) == 2


def test_qw_transition_curve_hundred_mev_window(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[qw]\nthicknesses_nm = 6\nbarrier_thickness_nm = 10\n"
        "grid_points = 51\nsweep_steps = 3\n"
        "[emulation]\ntransition_steps = 201\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["qw", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_rows(out / "qw_transition_energy.csv")
    strain = np.array([float(r[0]) for r in rows])
    energy = np.array([float(r[1]) for r in rows])
    shift = energy - energy[np.argmin(np.abs(strain))]
    tension = strain >= 0
    reached = np.flatnonzero(np.abs(shift[tension]) >= 0.100)
    assert reached.size > 0
    at = strain[tension][reached[0]]
    assert 0.013 <= at <= 0.020


def test_float_formatting_nine_significant_digits(tmp_path, config):
    out = tmp_path / "out"
    assert main(["mixing-curve", "--config", str(config),
                 "--out", str(out)]) == 0
    text = (out / "mixing_curve_z.csv").read_text(encoding="utf-8")
    assert "\r" not in text
    for cell in text.splitlines()[1].split(","):
        digits = cell.split("e")[0].replace("-", "").replace(".", "")
        assert len(digits.lstrip("0")) <= 9
