import csv
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from chiralwalk import cli
from chiralwalk.cli import main
from chiralwalk.evolve import evolve
from chiralwalk.fronts import FrontScanError

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


def test_evolve_guard_exit_code(tmp_path):
    rc = main(["evolve", "--g", "0.25", "--t", "100", "--lattice", "128", "--out", str(tmp_path)])
    assert rc == 3


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


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "60"])
def test_bad_xi_max_exits_2(tmp_path, capsys, monkeypatch, value):
    # rejected before any evolution or output
    monkeypatch.setattr(cli.airy_mod, "measure_edge", lambda *a, **kw: pytest.fail("evolved"))
    rc = main(["edge", "--g", "0.0625", "--t", "100", "--xi-max", value, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "xi-max" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flags", [["--window", "-5"], ["--window", "0"], ["--window", "2000"], ["--xi-max", "50"]]
)
def test_bad_window_exits_2(tmp_path, capsys, monkeypatch, flags):
    # a window must hold a site, and its profile must fit inside |xi| <= 50
    # including predict_edge's grid step; both are known before evolving
    monkeypatch.setattr(cli.airy_mod, "measure_edge", lambda *a, **kw: pytest.fail("evolved"))
    rc = main(["edge", "--g", "0.0625", "--t", "1e4", *flags, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "window" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flags",
    [["--grid", "0"], ["--grid", "1"], ["--grid", "-3"], ["--grid", str(cli.MAX_GRID + 1)],
     ["--exclusion", "-1"], ["--exclusion", "nan"], ["--exclusion", "inf"]],
)
def test_bad_scaling_input_exits_2(tmp_path, capsys, monkeypatch, flags):
    # rejected before any evolution or output
    for module in (cli, cli.hydro_mod):
        monkeypatch.setattr(module, "evolve", lambda *a, **kw: pytest.fail("evolved"))
    rc = main(["scaling", "--g", "0.0625", "--t", "100", *flags, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert flags[0][2:] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [["--t", "1e-9"], ["--t", "2000", "--exclusion", "1e6"]])
def test_vacuous_scaling_exits_2(tmp_path, capsys, monkeypatch, flags):
    # exclusion windows that cover every compared site leave nothing to compare
    for module in (cli, cli.hydro_mod):
        monkeypatch.setattr(module, "evolve", lambda *a, **kw: pytest.fail("evolved"))
    rc = main(["scaling", "--g", "0.25", "--phi", repr(math.pi / 2), *flags, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "cover every compared site" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [["--t", "1e9"], ["--t", "10", "--lattice", str(10**12)]])
def test_lattice_cap_exits_3(tmp_path, capsys, monkeypatch, flags):
    # refused before the first lattice array is allocated
    monkeypatch.setattr(np.fft, "fftfreq", lambda *a, **kw: pytest.fail("allocated"))
    rc = main(["evolve", "--g", "0.1", "--phi", "1.0", *flags, "--out", str(tmp_path)])
    assert rc == 3
    assert "cap" in capsys.readouterr().err


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
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("frobnicate = 3\n")
    with pytest.raises(SystemExit):
        main(["evolve", "--g", "0.1", "--config", str(unknown), "--out", str(tmp_path)])


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


def test_fronts_lost_roots_reported_per_row(tmp_path, monkeypatch):
    # a scan that fails at one g, as one that lost its roots would, is
    # written as one error row, quoted per RFC 4180, and the sweep goes on
    scan = cli.cone_topology

    def lose_roots_at_middle_g(p):
        if p.g == 0.1:
            raise FrontScanError(f"unexpected front count 0 at {p}")
        return scan(p)

    monkeypatch.setattr(cli, "cone_topology", lose_roots_at_middle_g)
    rc = main([
        "fronts", "--phi", "0.8", "--g-min", "0", "--g-max", "0.2", "--g-steps", "3",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    text = (tmp_path / "fronts.csv").read_text()
    message = "error: unexpected front count 0 at WalkParams(g=0.1, phi=0.8)"
    assert f'0.80000000000000004,0.10000000000000001,,,,,,"{message}"\n' in text
    header, *rows = csv.reader(text.splitlines())
    assert header[-1] == "status"
    assert [r[-1] for r in rows if r[1] == "0.10000000000000001"] == [message]
    ok = [r for r in rows if r[1] != "0.10000000000000001"]
    assert {r[1] for r in ok} == {"0", "0.20000000000000001"}
    assert all(r[-1] == "ok" for r in ok)
    validate(tmp_path / "gc.json", "gc")


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
    rc = main(["scaling", "--g", "0.3", "--phi", "0.8", "--t", t, "--exclusion", "0", "--grid", "8",
               "--out", str(tmp_path / "o")])
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


def test_edge_window_overlap_exits_2(tmp_path, capsys):
    rc = main([
        "edge", "--g", "0.25", "--phi", str(math.pi / 2), "--t", "200",
        "--front", "left", "--window", "150", "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "overlaps" in capsys.readouterr().err


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--g", "0.1", "--frobnicate", "--out", str(tmp_path)])
    assert exc.value.code == 2
