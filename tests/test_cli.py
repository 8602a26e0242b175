import csv
import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chiralwalk import WalkParams, _g17, cli, fronts
from chiralwalk.cli import main
from chiralwalk.evolve import evolve

# the package exports a function named evolve, so fetch the module by name
EVOLVE_MODULE = importlib.import_module("chiralwalk.evolve")
SCHEMA_DIR = Path(__file__).parent.parent / "src" / "chiralwalk" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def validate(path, schema_name):
    payload = json.loads(Path(path).read_text())
    jsonschema.validate(payload, load_schema(schema_name))
    return payload


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_evolve_symmetric_density(tmp_path):
    rc = main(["evolve", "--g", "0", "--phi", "1.5707963", "--t", "50", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "density.csv")
    assert header == ["n", "p", "j", "Phi", "J", "M1", "M2", "M3"]
    n = np.array([int(float(r[0])) for r in rows])
    p = np.array([float(r[1]) for r in rows])
    mid = {int(ni): pi for ni, pi in zip(n, p)}
    for k in (3, 17, 48):
        assert mid[k] == pytest.approx(mid[-k], abs=1e-10)
    summary = validate(tmp_path / "summary.json", "summary")
    assert summary["gamma"] == pytest.approx(0.0, abs=1e-8)
    assert summary["topology"] == "one_cone"


def test_evolve_t0_single_row(tmp_path):
    rc = main(["evolve", "--g", "0.1", "--phi", "0.3", "--t", "0", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "density.csv")
    nonzero = [r for r in rows if float(r[1]) > 1e-20]
    assert len(nonzero) == 1
    assert int(float(nonzero[0][0])) == 0
    summary = validate(tmp_path / "summary.json", "summary")
    assert summary["gamma"] is None


def test_evolve_summary_site_range(tmp_path):
    # the chiral ring is asymmetric about site 0, so the lattice size alone
    # does not give the site range: n_min is the site at index 0
    assert main(["evolve", "--g", "0.3", "--phi", "0.8", "--t", "50", "--out", str(tmp_path)]) == 0
    summary = validate(tmp_path / "summary.json", "summary")
    _, rows = read_csv(tmp_path / "density.csv")
    n = [int(r[0]) for r in rows]
    assert n == list(range(summary["n_min"], summary["n_min"] + summary["lattice"]))
    assert -summary["n_min"] != summary["lattice"] // 2
    del summary["n_min"]
    with pytest.raises(jsonschema.ValidationError, match="n_min"):
        jsonschema.validate(summary, load_schema("summary"))


def test_evolve_rejects_bad_coupling(tmp_path, capsys):
    rc = main(["evolve", "--g", "-1", "--t", "5", "--out", str(tmp_path)])
    assert rc == 2
    assert "g" in capsys.readouterr().err


def test_evolve_guard_exit_code(tmp_path, capsys, monkeypatch):
    # the automatic ring holds the cone, so a ring too small for it has to
    # be forced; the amplitude guard then ends the run before any output
    monkeypatch.setattr(EVOLVE_MODULE, "_whole_ring", lambda p, t, sites: (128, 64))
    rc = main(["evolve", "--g", "0.25", "--t", "100", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "wraparound guard violated" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_evolve_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["evolve", "--g", "0.0625", "--t", "30", "--out", str(out)]) == 0
    assert (a / "density.csv").read_bytes() == (b / "density.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", ["evolve", "scaling", "edge"])
def test_nonfinite_time_exits_2(tmp_path, capsys, command, value):
    rc = main([command, "--g", "0.1", "--t", value, "--out", str(tmp_path)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("front", ["left", "internal"])
@pytest.mark.parametrize("t", ["-1", "0"])
def test_edge_nonpositive_time_exits_2(tmp_path, capsys, front, t):
    # the internal front at (1/4, 0) has even order and never asks for an edge scale
    rc = main(["edge", "--g", "0.25", "--phi", "0", "--t", t, "--front", front, "--out", str(tmp_path)])
    assert rc == 2
    assert "t must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "60"])
def test_bad_xi_max_exits_2(tmp_path, capsys, monkeypatch, value):
    # rejected before any evolution or output
    monkeypatch.setattr(cli.airy_mod, "measure_edge", lambda *a, **kw: pytest.fail("evolved"))
    rc = main(["edge", "--g", "0.0625", "--t", "100", "--xi-max", value, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "xi-max" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_window_exits_2(tmp_path, capsys, monkeypatch):
    # the window's samples must fit inside |xi| <= 50, which is known before evolving
    monkeypatch.setattr(cli.airy_mod, "measure_edge", lambda *a, **kw: pytest.fail("evolved"))
    rc = main(["edge", "--g", "0.0625", "--t", "1e4", "--xi-max", "50", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "window" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flags",
    [["--grid", "0"], ["--grid", "1"], ["--grid", "-3"], ["--grid", str(cli.MAX_GRID + 1)]],
)
def test_bad_scaling_input_exits_2(tmp_path, capsys, monkeypatch, flags):
    # rejected before any evolution or output
    for module in (cli, cli.hydro_mod):
        monkeypatch.setattr(module, "evolve", lambda *a, **kw: pytest.fail("evolved"))
    rc = main(["scaling", "--g", "0.0625", "--t", "100", *flags, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert flags[0][2:] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_vacuous_scaling_exits_2(tmp_path, capsys, monkeypatch):
    # exclusion windows that cover every compared site leave nothing to compare
    for module in (cli, cli.hydro_mod):
        monkeypatch.setattr(module, "evolve", lambda *a, **kw: pytest.fail("evolved"))
    rc = main(["scaling", "--g", "0.25", "--phi", repr(math.pi / 2), "--t", "1e-9",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "cover every compared site" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [["evolve", "--t", "1e9"], ["scaling", "--t", "1e9"]])
def test_lattice_cap_exits_3(tmp_path, capsys, monkeypatch, flags):
    # a ring above the cap is refused before its phase factors are filled,
    # and before any output
    monkeypatch.setattr(EVOLVE_MODULE, "_phase_factors", lambda *a, **kw: pytest.fail("filled"))
    rc = main([flags[0], "--g", "0.1", "--phi", "1.0", *flags[1:], "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "cap" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _per_cell_csv(header, rows):
    # the writer's per-cell form: str() for str and Python int, else %.17g
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (str, int)) else format(float(c), ".17g") for c in row))
    return "\n".join(lines) + "\n"


def test_write_csv_matches_per_cell_format(tmp_path):
    special = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, np.int64(-7), np.float32(0.1),
               np.float64(1 / 3), np.int64(2**62), -1.5e300, 0.0, 7, True, "ok", np.str_("s")]
    rng = np.random.default_rng(5)
    rows = [tuple(special[i] for i in rng.choice(len(special), 4)) for _ in range(600)]
    rows += [[3, 10**20, False, np.float64(2.5)], (1.0, 2.0)]  # a list row, a short row
    header = ["a", "b", "c", "d"]
    cli._write_csv(tmp_path / "x.csv", header, rows)
    assert (tmp_path / "x.csv").read_text() == _per_cell_csv(header, rows)
    cols = (np.arange(-3, 4), np.linspace(-1, 1, 7), np.full(7, np.nan), np.float32(np.arange(7) / 3))
    cli._write_csv(tmp_path / "zip.csv", header, zip(*cols))
    assert (tmp_path / "zip.csv").read_text() == _per_cell_csv(header, zip(*cols))
    cli._write_csv(tmp_path / "empty.csv", header, [])
    assert (tmp_path / "empty.csv").read_text() == "a,b,c,d\n"


def test_write_csv_quotes_strings(tmp_path):
    # RFC 4180: a field holding a separator, a quote or a line break is quoted
    texts = ["plain", "a, b", 'say "hi"', "two\nlines", "cr\r\nlf", ""]
    cli._write_csv(tmp_path / "q.csv", ["i", "text", "x"], [(i, s, 0.5) for i, s in enumerate(texts)])
    raw = (tmp_path / "q.csv").read_bytes().decode()
    assert raw.startswith("i,text,x\n0,plain,0.5\n1,\"a, b\",0.5\n2,\"say \"\"hi\"\"\",0.5\n")
    with open(tmp_path / "q.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["i", "text", "x"]
    assert rows == [[str(i), s, "0.5"] for i, s in enumerate(texts)]


def _write_columns_checked(path, header, columns, write=cli._write_columns):
    # `write` is bound to the real writer before any test replaces cli._write_columns
    write(path, header, columns)
    assert Path(path).read_text() == _per_cell_csv(header, zip(*columns))


def test_write_columns_matches_per_cell_format(tmp_path):
    special = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.5e300, -1.5e300, 1 / 3, 0.0, 1e-300])
    rng = np.random.default_rng(7)
    block = cli.CSV_BLOCK
    for size in (0, 1, 2, block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1):
        columns = (
            np.arange(size, dtype=np.int64) - size // 2,  # a site column
            special[rng.integers(0, special.size, size)],
            rng.standard_normal(size).astype(np.float32),
            rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size),
        )
        _write_columns_checked(tmp_path / "x.csv", ["n", "s", "f32", "x"], columns)
    cli._write_columns(tmp_path / "e.csv", ["a", "b"], [()] * 2)
    assert (tmp_path / "e.csv").read_text() == "a,b\n"


@pytest.mark.parametrize("columns", [[np.zeros(3)], [np.zeros(3), np.zeros(2)], [np.zeros(1), np.zeros(3)]])
def test_write_columns_refuses_a_ragged_table(tmp_path, columns):
    with pytest.raises(ValueError, match="do not fill"):
        cli._write_columns(tmp_path / "x.csv", ["a", "b"], columns)


@pytest.mark.parametrize("argv", [
    ["evolve", "--g", "0.3", "--phi", "0.8", "--t", "0"],
    ["evolve", "--g", "0.3", "--phi", "0.8", "--t", "50"],
    ["scaling", "--g", "0.0625", "--phi", str(math.pi / 2), "--t", "2000"],
    ["scaling", "--g", "0.25", "--phi", str(math.pi / 2), "--t", "2000"],
    ["edge", "--g", "0.0625", "--phi", str(math.pi / 2), "--t", "2000", "--xi-max", "9.0"],
    ["edge", "--g", "0.25", "--phi", "0", "--t", "500", "--front", "internal"],  # even order: no rows
])
def test_cli_numeric_tables_match_per_cell_format(tmp_path, monkeypatch, argv):
    # each numeric dataset holds the bytes of the rows zip(*columns), one cell at a time
    written = []

    def checked(path, header, columns):
        written.append(Path(path).name)
        _write_columns_checked(path, header, columns)

    monkeypatch.setattr(cli, "_write_columns", checked)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert written == [{"evolve": "density.csv", "scaling": "bulk.csv", "edge": "edge.csv"}[argv[0]]]


def test_write_columns_memory_is_one_block(tmp_path):
    # a 2^18-row x 8-column table holds 16 MB of float64; the writer's traced
    # peak stays under 2 MB, so a copy of the whole table would fail
    size = 1 << 18
    columns = [np.arange(size, dtype=np.float64) * (k + 1) for k in range(8)]
    header = [f"c{k}" for k in range(8)]
    tracemalloc.start()
    try:
        cli._write_columns(tmp_path / "m.csv", header, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
    with open(tmp_path / "m.csv") as fh:
        assert sum(1 for _ in fh) == size + 1


def _assert_rows_text(block):
    # the block's text is the per-cell form's, header aside
    header = ["x"] * block.shape[1]
    got = _g17.rows_text(block).decode()
    if ",".join(header) + "\n" + got != _per_cell_csv(header, block.tolist()):
        cells = got.replace("\n", ",").split(",")[:-1]
        bad = [(v, c) for v, c in zip(block.ravel().tolist(), cells) if c != "%.17g" % v]
        pytest.fail(f"{len(bad)} cells differ from %.17g, e.g. (value, text) {bad[:3]}; {len(cells)} cells")


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64), st.integers(1, 5))
def test_rows_text_matches_percent_on_raw_bit_patterns(words, width):
    # every float64 bit pattern: subnormals, NaN payloads, +-inf and +-0 included
    cells = np.array(words, dtype=np.uint64).view(np.float64)
    width = min(width, cells.size)
    _assert_rows_text(cells[: cells.size // width * width].reshape(-1, width))


def _decimal_ties():
    # x = (2D + 1) / (2 * 10^k) with 10^16 <= D < 10^17 is an exact tie between two
    # 17-digit decimals; x is a double when 5^k divides 2D + 1 and the rest fits 53 bits
    rng = np.random.default_rng(26)
    ties = []
    for k in range(2, 25):
        for odd in rng.integers(2 * 10**16 // 5**k, 2 * 10**17 // 5**k, 40).tolist():
            num = (odd | 1) * 5**k
            x = num / (2 * 10**k)
            a, b = x.as_integer_ratio()
            if 2 * 10**16 < num < 2 * 10**17 and a * 2 * 10**k == num * b:
                ties.append(x)
    return ties


def test_rows_text_matches_percent_on_edge_cases():
    ties = _decimal_ties()
    assert len(ties) > 500
    # 10^j and its neighbours: the fixed/scientific switch at exponents -5/-4 and
    # 16/17, and the carry to D = 10^17 of 1e-14, 1e-70 and 1e-305, which lie just
    # below their power of ten
    powers = [float(f"1e{j}") for j in range(-323, 309)]
    powers += [math.nextafter(p, d) for p in powers for d in (0.0, math.inf)]
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123, 0xFFF0000000000001],
                    dtype=np.uint64).view(np.float64)
    special = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
               math.inf, 1.0, 2.0**53 + 2, 0.1, 1 / 3]
    cells = [*ties, *powers, *special]
    cells = np.array([*cells, *(-c for c in cells), *nans])
    for width in (1, 3, 8):
        _assert_rows_text(cells[: cells.size // width * width].reshape(-1, width))


@pytest.mark.parametrize("width", [1, 6, 11])
def test_rows_text_of_no_rows_is_empty(width):
    assert _g17.rows_text(np.empty((0, width))) == b""


def _covered(cells):
    # where _g17 decides a near-tie exactly: 1 <= -E <= 64 for |x| = m*2^E
    exponent = np.frexp(cells)[1].astype(np.int64) - 53
    return (exponent < 0) & (exponent >= -64)


def test_exact_ties_in_the_residue_range_need_no_percent():
    ties = np.array(_decimal_ties())
    covered = ties[_covered(ties)]
    assert covered.size > 400
    for cells in (covered, -covered):
        assert _g17._decimal(cells.copy())[2].size == 0
        _assert_rows_text(cells.reshape(-1, 1))


@given(st.lists(st.tuples(st.integers(1, 24), st.floats(0.0, 1.0), st.booleans()), min_size=1, max_size=64))
def test_rows_text_matches_percent_on_exact_ties(draws):
    # x = o / 2^(k+1), o odd, with 10^16 < 5^k o / 2 < 10^17, is an exact tie:
    # x*10^k = 5^k o / 2 lies halfway between two 17-digit decimals.  Ties
    # from k = 1 to ~20 fall in the residue range, the rest go to %
    cells = []
    for k, u, negative in draws:
        lo, hi = 2 * 10**16 // 5**k + 1, min(2 * 10**17 // 5**k, 2**53 - 1)
        odd = 2 * ((lo + round(u * (hi - lo))) // 2) + 1
        odd = odd if odd <= hi else odd - 2
        x = odd / 2 ** (k + 1)
        assert 2 * 10**16 < odd * 5**k < 2 * 10**17 and x.as_integer_ratio() == (odd, 2 ** (k + 1))
        cells.append(-x if negative else x)
    cells = np.array(cells)
    _assert_rows_text(cells.reshape(-1, 1))
    assert not _covered(cells)[_g17._decimal(cells.copy())[2]].any()


def test_import_loads_no_fractions_or_decimal():
    # the powers of ten are built from ints on first use, so importing costs nothing
    code = ("import sys, numpy as np, chiralwalk, chiralwalk.cli as cli;"
            "cli.rows_text(np.array([[1e-300, 2.5, 1e300]]));"
            "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))")
    src = str(Path(__file__).parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("g = 0.0625\nphi = 1.5707963267948966\nt = 20\n# comment\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["evolve", "--config", str(cfg), "--out", str(out1)]) == 0
    s1 = json.loads((out1 / "summary.json").read_text())
    assert s1["t"] == 20.0 and s1["g"] == 0.0625
    # explicit flag wins over the config value
    assert main(["evolve", "--config", str(cfg), "--t", "10", "--out", str(out2)]) == 0
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s2["t"] == 10.0


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["evolve", "--g", "0.1", "--config", str(missing), "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n")
    assert main(["evolve", "--g", "0.1", "--config", str(bad), "--out", str(tmp_path)]) == 2
    # --config as the last argument names no file
    assert main(["evolve", "--g", "0.1", "--out", str(tmp_path / "none"), "--config"]) == 2
    assert "--config requires a file path" in capsys.readouterr().err
    assert not (tmp_path / "none").exists()
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("frobnicate = 3\n")
    with pytest.raises(SystemExit):
        main(["evolve", "--g", "0.1", "--config", str(unknown), "--out", str(tmp_path)])


@pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"], ["--conf", "{}"], ["--conf={}"]])
def test_config_file_read_under_every_spelling(tmp_path, spelling):
    # every spelling that argparse binds to --config reads the file
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("g = 0.3\nphi = 0.8\nt = 7\n")
    flags = [s.format(cfg) for s in spelling]
    assert main(["evolve", "--g", "0.3", *flags, "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert (summary["t"], summary["phi"]) == (7.0, 0.8)
    missing = [s.format(tmp_path / "nope.txt") for s in spelling]
    assert main(["evolve", "--g", "0.3", *missing, "--out", str(tmp_path / "none")]) == 2
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("command", ["evolve", "fronts", "scaling", "edge"])
def test_config_read_under_every_abbreviation(command, tmp_path):
    # argparse binds --c ... --config, spaced or joined by '=', to --config
    # in every subcommand, and each of them reads the file
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("jobs = 2\n")
    required = [] if command == "fronts" else ["--g", "0.1"]
    for n in range(3, len("--config") + 1):
        for flag in (["--config"[:n], str(cfg)], [f"{'--config'[:n]}={cfg}"]):
            args = cli.build_parser().parse_args(cli._inject_config([command, *required, *flag]))
            assert (args.config, args.jobs) == (str(cfg), 2), flag


def test_fronts_sweep_and_gc(tmp_path):
    rc = main([
        "fronts", "--phi", str(math.pi / 2), "--g-min", "0.05", "--g-max", "0.2",
        "--g-steps", "7", "--out", str(tmp_path),
    ])
    assert rc == 0
    header, rows = read_csv(tmp_path / "fronts.csv")
    assert header == ["phi", "g", "q_star", "velocity", "order", "kappa", "topology", "status"]
    assert all(r[-1] == "ok" for r in rows)
    gs = sorted({float(r[1]) for r in rows})
    # front count steps 2 -> 4 across the transition at g = 1/8
    low = [g for g in gs if g < 0.125 - 1e-9]
    high = [g for g in gs if g > 0.125 + 1e-9]
    for g in low:
        assert sum(1 for r in rows if float(r[1]) == g) == 2
    for g in high:
        assert sum(1 for r in rows if float(r[1]) == g) == 4
    gc = validate(tmp_path / "gc.json", "gc")
    assert gc["critical_couplings"][0]["g_c"] == pytest.approx(0.125, abs=1e-5)


def test_fronts_empty_range(tmp_path):
    assert main(["fronts", "--g-min", "0.2", "--g-max", "0.1", "--out", str(tmp_path)]) == 2
    assert main(["fronts", "--g-steps", "0", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("phi_list", ["", "0,,1", "x", "0.5,"])
def test_fronts_unparsable_phi_list_exits_2(tmp_path, capsys, phi_list):
    # an empty list is refused, not swept at the --phi default
    rc = main(["fronts", "--phi-list", phi_list, "--g-steps", "4", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --phi-list must be comma-separated numbers, got {phi_list!r}\n"
    assert not (tmp_path / "o").exists()


def test_fronts_phi_just_past_the_window_exits_2(tmp_path, capsys):
    # a phi one float above pi/2 is refused before any output, beside a phi
    # inside the window, as WalkParams would refuse each of its points
    phi = math.nextafter(math.pi / 2, 2.0)
    rc = main([
        "fronts", "--phi-list", f"{phi!r},0.5", "--g-min", "0", "--g-max", "0.3", "--g-steps", "4",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert f"phi {phi!r} outside the canonical window" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


FRONTS_HEADER = ["phi", "g", "q_star", "velocity", "order", "kappa", "topology", "status"]


def _fronts_csv_by_rows(path, phis, gs):
    # the reference: fronts.csv as the row writer wrote it before the scan
    # ended in columns, from each point's own cone_topology, not from the
    # sweep's batch, sorted by (phi, g, velocity), through _write_csv
    points = [WalkParams(g, phi) for phi in phis for g in gs]
    rows = [
        (p.phi, p.g, fr.q_star, fr.velocity, fr.order, fr.kappa, diagram.topology.value, "ok")
        for p, diagram in zip(points, map(fronts.cone_topology, points))
        for fr in diagram.fronts
    ]
    rows.sort(key=lambda r: (r[0], r[1], r[3]))
    cli._write_csv(path, FRONTS_HEADER, rows)


PUBLISHED_PHIS = [0.0, math.pi / 6, math.pi / 4, math.pi / 3, 5 * math.pi / 12, math.pi / 2]


@pytest.mark.parametrize("phis, g_min, g_max, g_steps, jobs", [
    (PUBLISHED_PHIS, 0.02, 0.30, 57, None),  # the published sweep
    ([0.0, 0.3, math.pi / 2], 0.0, 2.0, 801, None),  # both critical bands, g < G_SEED, many blocks
    ([0.3, 0.0, 0.3], 0.0, 0.5, 41, None),  # a repeated phi: rows of equal (phi, g, velocity)
    (PUBLISHED_PHIS, 0.02, 0.30, 57, 2),  # the published sweep at --jobs 2, as the benchmark runs it
])
def test_fronts_csv_matches_the_row_writer(tmp_path, phis, g_min, g_max, g_steps, jobs):
    argv = ["fronts", "--phi-list", ",".join(map(repr, phis)), "--g-min", repr(g_min), "--g-max", repr(g_max),
            "--g-steps", str(g_steps), "--out", str(tmp_path / "cli")]
    argv += [] if jobs is None else ["--jobs", str(jobs)]
    assert main(argv) == 0
    _fronts_csv_by_rows(tmp_path / "rows.csv", phis, np.linspace(g_min, g_max, g_steps).tolist())
    got = (tmp_path / "cli" / "fronts.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize(
    "flags",
    [["--tol-g", "nan"], ["--tol-g", "inf"], ["--tol-root", "nan"], ["--tol-root", "inf"],
     ["--tol-root", "1e-5"], ["--g-min", "nan"], ["--g-min", "inf", "--g-max", "inf"],
     ["--g-max", "nan"], ["--g-max", "inf"], ["--g-steps", str(2**40)],
     ["--g-steps", str(cli.MAX_SWEEP // 2 + 1), "--phi-list", "0,0.5"]],
)
def test_bad_fronts_input_exits_2(tmp_path, capsys, monkeypatch, flags):
    # rejected before the g grid is allocated or any output is written; the
    # front scan and g_c use fixed tolerances, so argparse itself refuses the
    # old --tol-g and --tol-root flags
    monkeypatch.setattr(np, "linspace", lambda *a, **kw: pytest.fail("allocated"))
    try:
        rc = main(["fronts", *flags, "--out", str(tmp_path / "o")])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert flags[0][2:] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_fronts_jobs_deterministic(tmp_path):
    outs = []
    for jobs, name in (("1", "j1"), ("2", "j2")):
        out = tmp_path / name
        rc = main([
            "fronts", "--phi", "0.5", "--g-min", "0.05", "--g-max", "0.45",
            "--g-steps", "9", "--jobs", jobs, "--out", str(out),
        ])
        assert rc == 0
        outs.append((out / "fronts.csv").read_bytes())
    assert outs[0] == outs[1]


def test_scaling_outputs(tmp_path):
    rc = main([
        "scaling", "--g", "0", "--phi", str(math.pi / 2), "--t", "400",
        "--grid", "801", "--out", str(tmp_path),
    ])
    assert rc == 0
    header, rows = read_csv(tmp_path / "bulk.csv")
    assert header[:5] == ["nu", "Phi_num", "Phi_hydro", "J_num", "J_hydro"]
    nus = np.array([float(r[0]) for r in rows])
    phi_num = np.array([float(r[1]) for r in rows])
    i0 = int(np.argmin(np.abs(nus)))
    assert phi_num[i0] == pytest.approx(0.5, abs=0.01)
    report = validate(tmp_path / "bulk_report.json", "bulk_report")
    assert report["deviations"]["phi"]["sup_outside"] < 0.02


@pytest.mark.parametrize("t", ["1e-110", "2e-103"])
def test_scaling_tiny_time_exits_2(tmp_path, capsys, t):
    # t^3 below the smallest normal float would turn the scaled moments
    # into inf or lose their digits; refused before any output
    rc = main(["scaling", "--g", "0.3", "--phi", "0.8", "--t", t, "--grid", "8", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "t^3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_scaling_evolves_once(tmp_path, monkeypatch):
    # bulk.csv reads the fields compare_bulk evolved for bulk_report.json
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return evolve(*args, **kwargs)

    for module in (cli, cli.hydro_mod):
        monkeypatch.setattr(module, "evolve", counted)
    assert main(["scaling", "--g", "0.0625", "--t", "200", "--grid", "101", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_scaling_kink_window_present(tmp_path):
    rc = main([
        "scaling", "--g", "0.25", "--phi", str(math.pi / 2), "--t", "300",
        "--grid", "401", "--out", str(tmp_path),
    ])
    assert rc == 0
    report = validate(tmp_path / "bulk_report.json", "bulk_report")
    vels = [w["velocity"] for w in report["windows"]]
    assert any(abs(v + 1.0) < 1e-9 for v in vels)  # internal front at v_i = -1
    assert any(abs(v + 1.5) < 1e-9 for v in vels)


def test_edge_first_order(tmp_path):
    rc = main([
        "edge", "--g", "0.0625", "--phi", str(math.pi / 2), "--t", "2000",
        "--front", "left", "--xi-max", "9.0", "--out", str(tmp_path),
    ])
    assert rc == 0
    meta = validate(tmp_path / "edge.json", "edge")
    assert meta["order"] == 1
    assert meta["scaling_exponent"] == pytest.approx(1 / 3)
    assert meta["degeneracy"] == 1
    # the ring that measured the profile, recorded with every window
    p = WalkParams(0.0625, math.pi / 2)
    front = cli.cone_topology(p).fronts[0]
    assert meta["lattice"] == cli.airy_mod.measure_edge(p, front, 2000.0, meta["window"]).lattice
    for key in ("lattice", "window"):
        partial = {k: v for k, v in meta.items() if k != key}
        with pytest.raises(jsonschema.ValidationError, match="is a dependency of"):
            jsonschema.validate(partial, load_schema("edge"))
    header, rows = read_csv(tmp_path / "edge.csv")
    assert header == ["xi", "dPhi_scaled_num", "dPhi_scaled_pred", "dJ_scaled_num"]
    xi = np.array([float(r[0]) for r in rows])
    num = np.array([float(r[1]) for r in rows])
    pred = np.array([float(r[2]) for r in rows])
    sel = (xi >= 0) & (xi <= 6)
    assert np.max(np.abs(num[sel] - pred[sel])) < 0.03
    sheader, srows = read_csv(tmp_path / "staircase.csv")
    assert sheader == ["front", "observable", "step_index", "height", "width", "area", "note"]
    cpd_rows = [r for r in srows if r[1] == "cpd"]
    assert len(cpd_rows) >= 4


def test_edge_third_order_exponent(tmp_path):
    rc = main([
        "edge", "--g", "0.125", "--phi", str(math.pi / 2), "--t", "2000",
        "--front", "left", "--xi-max", "8.0", "--out", str(tmp_path),
    ])
    assert rc == 0
    meta = validate(tmp_path / "edge.json", "edge")
    assert meta["order"] == 3
    assert meta["scaling_exponent"] == pytest.approx(0.2)


def test_edge_degenerate_front(tmp_path):
    rc = main([
        "edge", "--g", "0.25", "--phi", str(math.pi / 2), "--t", "2000",
        "--front", "left", "--xi-max", "7.0", "--out", str(tmp_path),
    ])
    assert rc == 0
    meta = validate(tmp_path / "edge.json", "edge")
    assert meta["degeneracy"] == 2
    _, rows = read_csv(tmp_path / "edge.csv")
    xi = np.array([float(r[0]) for r in rows])
    num = np.array([float(r[1]) for r in rows])
    pred = np.array([float(r[2]) for r in rows])  # already doubled
    sel = (xi >= 0) & (xi <= 6)
    assert np.max(np.abs(num[sel] - pred[sel])) < 0.06


def test_edge_even_order_diagnostic(tmp_path):
    # at phi=0, g=1/4 the internal front is second order: no real staircase
    rc = main([
        "edge", "--g", "0.25", "--phi", "0", "--t", "500",
        "--front", "internal", "--out", str(tmp_path),
    ])
    assert rc == 0
    meta = validate(tmp_path / "edge.json", "edge")
    assert meta["order"] == 2
    assert meta["staircase"] == "none"
    _, srows = read_csv(tmp_path / "staircase.csv")
    assert len(srows) == 1 and "no real staircase" in srows[0][-1]


def test_edge_no_internal_front_below_transition(tmp_path, capsys):
    rc = main([
        "edge", "--g", "0.05", "--phi", str(math.pi / 2), "--t", "500",
        "--front", "internal", "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "internal" in capsys.readouterr().err


def test_edge_internal_ambiguity(tmp_path, capsys):
    # above the transition at phi=0 there are two distinct internal velocities
    rc = main([
        "edge", "--g", "0.3", "--phi", "0", "--t", "500",
        "--front", "internal", "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "ambiguous" in capsys.readouterr().err


@pytest.mark.parametrize("front", ["left", "right"])
def test_edge_widest_window_fits_the_ring(tmp_path, front):
    # the ring holds any window up to max_edge_window on its front's side;
    # the right front is the faster one, which a ring sized for the tail
    # alone leaves no room past
    rc = main([
        "edge", "--g", "0.0625", "--phi", str(math.pi / 2), "--t", "1e4",
        "--front", front, "--xi-max", "49.9", "--out", str(tmp_path),
    ])
    assert rc == 0
    meta = validate(tmp_path / "edge.json", "edge")
    xi = np.array([float(r[0]) for r in read_csv(tmp_path / "edge.csv")[1]])
    assert len(xi) == 2 * meta["window"] + 1 and np.max(np.abs(xi)) <= 49.99


def test_edge_outer_front_past_the_whole_ring_cap(tmp_path):
    # at t = 1e8 the whole ring would hold ~4e8 sites, past MAX_LATTICE; the
    # outer front's windowed ring (900 000 sites) is the one ring_layout
    # gives for the edge window, and the staircase is resolved
    rc = main(["edge", "--g", "0.0625", "--t", "1e8", "--out", str(tmp_path)])
    assert rc == 0
    meta = validate(tmp_path / "edge.json", "edge")
    n_e = round(meta["velocity"] * 1e8)
    sites = (n_e - meta["window"], n_e + meta["window"])
    assert meta["lattice"] == EVOLVE_MODULE.ring_layout(WalkParams(meta["g"], meta["phi"]), 1e8, sites)[0]
    assert meta["lattice"] < EVOLVE_MODULE.MAX_LATTICE
    _, srows = read_csv(tmp_path / "staircase.csv")
    assert len([r for r in srows if r[1] == "cpd"]) >= 5


def test_edge_internal_front_past_the_whole_ring_cap(tmp_path):
    # the internal front's windowed ring, its background filled by the
    # velocity step, holds ~2.2e6 sites at t = 1e8, where the whole ring
    # would hold ~4.5e8
    rc = main(["edge", "--g", "0.25", "--phi", str(math.pi / 2), "--t", "1e8", "--front", "internal",
               "--out", str(tmp_path)])
    assert rc == 0
    meta = validate(tmp_path / "edge.json", "edge")
    assert meta["lattice"] < EVOLVE_MODULE.MAX_LATTICE
    _, srows = read_csv(tmp_path / "staircase.csv")
    assert len([r for r in srows if r[1] == "cpd"]) >= 5


def test_edge_internal_front_past_the_cap_exits_3(tmp_path, capsys):
    # at t = 1e12 the internal front's windowed ring would hold ~2.2e8 sites,
    # past the cap; the run ends before any output
    rc = main(["edge", "--g", "0.25", "--phi", str(math.pi / 2), "--t", "1e12", "--front", "internal",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "exceeds the cap" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_edge_scale_too_small_for_a_window_exits_2(tmp_path, capsys):
    # at t = 1e-300 the edge scale is ~1e-100 sites: no whole-site window
    # lies within |xi| <= XI_LIMIT, whatever --xi-max asks
    rc = main(["edge", "--g", "0.0625", "--t", "1e-300", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "too small for any whole-site window" in err and "xi-max" not in err
    assert not (tmp_path / "o").exists()


def test_edge_window_overlap_exits_2(tmp_path, capsys):
    rc = main([
        "edge", "--g", "0.25", "--phi", str(math.pi / 2), "--t", "200",
        "--front", "left", "--xi-max", "22.333", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "window of 150 sites" in err and "overlaps" in err
    assert not (tmp_path / "o").exists()


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--g", "0.1", "--frobnicate", "--out", str(tmp_path)])
    assert exc.value.code == 2
