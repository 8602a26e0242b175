"""The CLI's exit-code contract as a property: 0 ok, 2 config, 3 guard.

Every numeric flag of every subcommand is driven with finite, non-finite,
huge, tiny, zero and negative values.  No exception may escape main, the
exit code must be 0, 2 or 3, a run that exits 2 must not have created its
output directory, and every JSON file a run that exits 0 writes must be
strict JSON (no NaN or Infinity) that its schema accepts, and a
RuntimeWarning fails the test.  The ring, grid
and sweep caps are lowered so that no generated example can start large
work, on the whole ring and on the windowed one alike; MAX_LATTICE
stays a power of two, so the FFT-size search still stops at the cap.
"""

import importlib
import json
import math
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralwalk import cli

# an overflow or invalid value on the way to an exit code is a defect
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EVOLVE_MODULE = importlib.import_module("chiralwalk.evolve")
SCHEMA_DIR = Path(__file__).parent.parent / "src" / "chiralwalk" / "schemas"
# the JSON file each subcommand writes, named after its schema
JSON_OUTPUT = {"evolve": "summary", "scaling": "bulk_report", "edge": "edge", "fronts": "gc"}

# each list mixes values that pass validation with zero, negative, tiny,
# huge and non-finite ones
NONFINITE = [math.inf, -math.inf, math.nan]
COUPLINGS = st.sampled_from([0.0, 1e-16, 0.0625, 0.125, 0.3, 2.0, 1e300, 1e308, -0.0, -1.0, *NONFINITE])
PHASES = st.sampled_from([0.0, 0.8, math.pi / 2, 1e-300, 2.0, -1.0, *NONFINITE])
TIMES = st.sampled_from(
    [0.0, 5e-324, 1e-200, 1e-160, 1e-155, 1e-110, 1e-9, 1.0, 1e3, 1e300, 1e308, 1.7e308, -1.0, *NONFINITE]
)
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, 1e-12, 0.5, 1.0, 8.0, 13.5, 50.0, 1e6, 1e308, -1.0, *NONFINITE]),
    st.floats(-3.0, 3.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
INTS = st.one_of(
    st.sampled_from([-1, 0, 1, 2, 3, 4, 7, 64, 2**16, 2**40, 10**400]),
    st.integers(-10, 5000),
)
COMMON = {"--g": COUPLINGS, "--phi": PHASES, "--t": TIMES, "--jobs": INTS}
# (valid base arguments, numeric flags and their values) per subcommand; the
# bases run in milliseconds, and edge's left front at (1/16, pi/2), t = 50,
# is clear of the right front
COMMANDS = {
    "evolve": (["--g=0.3", "--phi=0.8", "--t=50"], COMMON),
    "scaling": (
        ["--g=0.3", "--phi=0.8", "--t=50", "--grid=64"],
        {**COMMON, "--grid": INTS},
    ),
    "edge": (
        ["--g=0.0625", "--t=50"],
        {
            **COMMON,
            "--front": st.sampled_from(["left", "right", "internal"]),
            "--xi-max": FLOATS,
        },
    ),
    "fronts": (
        ["--g-steps=8"],
        {
            "--phi": PHASES,
            "--phi-list": st.lists(PHASES, min_size=1, max_size=3).map(lambda xs: ",".join(map(repr, xs))),
            "--g-min": st.one_of(COUPLINGS, FLOATS),
            "--g-max": st.one_of(COUPLINGS, FLOATS),
            "--g-steps": INTS,
            "--jobs": INTS,
        },
    ),
}


@st.composite
def argvs(draw, command):
    """The base arguments, then one to three flags with drawn values (argparse keeps the last)."""
    base, flags = COMMANDS[command]
    argv = [command, *base]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=3, unique=True)):
        value = draw(flags[flag])
        # flag=value, so that argparse reads "-inf" as a value, not an option
        argv.append(f"{flag}={value if isinstance(value, str) else repr(value)}")
    return argv


@pytest.fixture(scope="module", autouse=True)
def small_caps():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EVOLVE_MODULE, "MAX_LATTICE", 1 << 16)
        mp.setattr(cli, "MAX_SWEEP", 64)
        mp.setattr(cli, "MAX_GRID", 1 << 12)
        yield


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def _check(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        rc = cli.main([*argv, f"--out={out}"])
        assert rc in (0, 2, 3), argv
        if rc == 2:
            assert not out.exists(), argv
        if rc == 0:
            name = JSON_OUTPUT[argv[0]]
            payload = json.loads((out / f"{name}.json").read_text(), parse_constant=_not_json)
            jsonschema.validate(payload, json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text()))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_exit_code_contract(command):
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(argvs(command))
    def run(argv):
        _check(argv)

    run()


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--g=0.3", "--phi=0.8", "--t=1e308"],
        ["scaling", "--g=0.3", "--phi=0.8", "--t=1e308"],
        ["edge", "--g=0.0625", "--t=1e308"],
        ["edge", "--g=0.0625", "--t=1e308", "--front=right"],
        ["evolve", "--g=1e300", "--t=1"],
    ],
)
def test_huge_ring_exits_3(argv, tmp_path, capsys):
    assert cli.main([*argv, f"--out={tmp_path / 'o'}"]) == 3
    err = capsys.readouterr().err
    assert "cap" in err and len(err) < 200


@pytest.mark.parametrize("t", [1e-110, 1e-155, 1e-160, 1e-200, 5e-324])
def test_tiny_time_writes_null_gamma(tmp_path, t):
    rc = cli.main(["evolve", "--g=0.3", "--phi=0.8", f"--t={t!r}", f"--out={tmp_path}"])
    assert rc == 0
    assert json.loads((tmp_path / "summary.json").read_text())["gamma"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--g=0.3", "--t=-1"],
        ["evolve", "--g=0.3", "--phi=2"],
        ["edge", "--g=0.0625", "--t=100", "--front=internal"],
        ["edge", "--g=0.0625", "--t=1e-300"],
        ["edge", "--g=0.0625", "--t=10", "--xi-max=50"],
        ["edge", "--g=0.0625", "--t=5e-324"],
        ["edge", "--g=1e300", "--t=1e10"],
    ],
)
def test_config_error_leaves_no_output(argv, tmp_path, capsys):
    # a negative t, a phi outside the canonical window, a missing internal
    # front, a window past |xi| = 50 (86 sites against a usable 84), and an
    # edge scale too small for a whole-site window or that under- or
    # overflows are all refused before any output
    assert cli.main([*argv, f"--out={tmp_path / 'o'}"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


# flags that no longer exist: the ring is always the automatic, guarded one,
# scaling's exclusion windows are always EXCLUSION edge scales, and edge's
# window comes from --xi-max alone
REMOVED_FLAGS = {
    "evolve": [["--lattice=128"]],
    "scaling": [["--lattice=128"], ["--exclusion", "8"]],
    "edge": [["--lattice=128"], ["--window", "30"]],
}


@pytest.mark.parametrize("command", ["evolve", "scaling", "edge"])
def test_lattice_flag_is_unknown(command, tmp_path, capsys):
    for flag in REMOVED_FLAGS[command]:
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--g=0.3", *flag, f"--out={tmp_path / 'o'}"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def _fronts_bytes(tmp_path, name, *flags):
    out = tmp_path / name
    assert cli.main(["fronts", *flags, "--g-steps=5", f"--out={out}"]) == 0
    return {f: (out / f).read_bytes() for f in ("fronts.csv", "gc.json")}


def test_fronts_phi_spells_phi_list(tmp_path):
    # one phi option: --phi X writes the bytes of --phi-list X, and of two
    # phi flags the last wins
    listed = _fronts_bytes(tmp_path, "listed", "--phi-list", "0.8")
    assert _fronts_bytes(tmp_path, "single", "--phi", "0.8") == listed
    assert _fronts_bytes(tmp_path, "joined", "--phi=0.8") == listed
    assert _fronts_bytes(tmp_path, "last_list", "--phi", "0.3", "--phi-list", "0.8") == listed
    assert _fronts_bytes(tmp_path, "last_phi", "--phi-list", "0.3,1.2", "--phi", "0.8") == listed
    pair = _fronts_bytes(tmp_path, "pair", "--phi-list", "0.3,1.2")
    assert _fronts_bytes(tmp_path, "pair_phi", "--phi", "0.3,1.2") == pair != listed


@pytest.mark.parametrize("g", [2.3e307, 5e307, 1.7e308])
@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--phi=0.8", "--t=50"],
        ["scaling", "--phi=0.8", "--t=50"],
        ["edge", "--phi=0.8", "--t=50"],
        ["fronts", "--g-min=0", "--g-steps=3"],
    ],
    ids=["evolve", "scaling", "edge", "fronts"],
)
def test_coupling_too_large_for_the_front_scan_exits_2(argv, g, tmp_path, capsys):
    # 8 g (and from ~4.4e307 on, 4 g) overflowed inside the front scan
    flag = "--g-max" if argv[0] == "fronts" else "--g"
    assert cli.main([*argv, f"{flag}={g!r}", f"--out={tmp_path / 'o'}"]) == 2
    assert capsys.readouterr().err.startswith(f"error: g={g!r} is too large")
    assert not (tmp_path / "o").exists()
