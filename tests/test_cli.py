import hashlib
import io
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkg import cli, matcher, verify
from qkg._digits import render
from qkg.cli import main
from qkg.closedform import exterior_amplitudes_grid
from qkg.model import BarrierSpec


# Defines ill_conditioned(spec), a solver whose matching system has column 0
# scaled by 2^30: the same answer, bit for bit, at cond_1 7.0e9, between the
# warning and the rejection gate.  No input spec reaches that band.
_ILL_CONDITIONED_SOLVE = """\
import sys
import numpy as np
from qkg import cli, matcher

def ill_conditioned(spec):
    system = matcher.build_system(spec)
    scale = np.ones(8)
    scale[0] = 2.0 ** 30
    return matcher.solve(system._replace(
        matrix=system.matrix * scale, column_scale=system.column_scale * scale))
"""


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "qkg.cli", *args],
                          capture_output=True, text=True)


# Every digest and exact float pinned here holds at one numpy SIMD dispatch
# level: it was recorded on an AVX-512 x86-64 machine, and with only X86_V4
# disabled (an AVX2 machine) it still holds.  Under
# NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" (baseline
# SSE4.2 loops only) numpy rounds some last bits differently, and the solve,
# field, sweep and ordering pins fail while every tolerance test passes.
#
# sha256 of the stdout of `qkg solve ARGS`: the default spec, both poles,
# V0 = 0 and a = 0, as text, CSV and JSON.  Recorded when c3..c6 moved to the
# entire interior basis {cos qx, sin(qx)/q}; the closed-form c1, c2, c7, c8
# and the fraction and magnitude-sum lines did not change then.  The default
# and theta = pi digests were re-recorded when closedform.coupled moved to
# mode_ratios' weights, which moves the last bits of some closed-form numbers;
# the linear-solve column did not move.
SOLVE_DIGESTS = {
    "":
        "1db7c03c796541ab721f34c7dc1561734b6ae8b24a30fd44003cda724dff9567",
    "--format csv":
        "5640ec13bb492358190557ab47f099e7472c9a131e2b3b9947bbd65a88a32d61",
    "--format json":
        "46fab23d25a80d2d45a23099608a7120730251339e0756c3d5632c24ecf1f07e",
    "--theta 0":
        "835e38cfa183ddc2c911faa8e71e8a29eaa42a36f55b2a25de5290505b54fa90",
    "--theta 0 --format csv":
        "2603bdf75a8304a6505a426d969a44f1432c13e25491a6a8a46dd31636204268",
    "--theta 0 --format json":
        "f848a4ca77efa28c79371ac98087e1ef8868100d253fa4734022a55cdee5189c",
    "--theta 3.141592653589793":
        "3d0433025c694e1c7f0ddcb230ee84dac1df27ba4443d7cfefe0c8c5a482c6c6",
    "--theta 3.141592653589793 --format csv":
        "96511130a7661ec1b34e6fac7f6db85574c0ef548124fbb308fe9e5e10e1e5e4",
    "--theta 3.141592653589793 --format json":
        "16e468f8321663da7ac311c2fdc5cfee52e02ce0b0ce364803e7c8f35817d2bf",
    "--v0 0":
        "460dc3e0901c27d1682a4881dd370b6b72807981704ae87137e98d8a76f86aca",
    "--v0 0 --format csv":
        "00bf8783301544835d7d106e78faf7fab91e0324634ef18406a3ac1cb8113233",
    "--v0 0 --format json":
        "9652789841a7e966916210b0589196381b5cd771074bfc3a877f1b5816681901",
    "--a 0":
        "bfd091119a2f7bd2fea3067525ad80023e055ea172cf3f3a25e6139ad30ba057",
    "--a 0 --format csv":
        "32041d8366cc382123286a9b4c667c4f26c6f563ec26018fd1ab60f098be9bba",
    "--a 0 --format json":
        "dff70f17e1ffe4ab86e65f44e69cd54470645dfe6f54b165cfbfae920b3ab785",
}

# sha256 of the stdout of `qkg sweep ARGS` and `qkg ordering ARGS`, recorded
# before the sweep's fraction moved into closedform.quaternionic_fraction_grid:
# pi/25 steps whose last point is clamped to pi, the 48 x 800 v0 x theta grid,
# V0 = omega0, and underflowing squares, in CSV (text) and JSON.  The ordering
# digests were re-recorded when each free gap's phase was folded into its left
# neighbour instead of a star product, which moves the last bit of some numbers.
# The first six sweep digests were re-recorded when the sweep's magnitudes moved
# from np.abs to np.hypot, which rounds as abs(complex) and moves the last bit
# of some |c|.  Every digest whose grid leaves theta = 0 and the underflow
# window was re-recorded when closedform.coupled moved to mode_ratios' weights
# (each moved number within 1e-14 of its old value, relative); so were the
# ordering digests (within 3e-14).
_CI_GRID = ("--a 2 --omega0 1 --phi 1 --sweep v0:0.02:0.95:0.01978723404255319 "
            "--sweep theta:0:3.141592653589793:0.00393190569911113")
SWEEP_DIGESTS = {
    "--sweep theta:0:3.141592653589793:0.12566370614359174":
        "a293a2f2576242d3cfa7331693746a3055a6c7d3fd157926b0b7354287c07ad1",
    "--sweep theta:0:3.141592653589793:0.12566370614359174 --format json":
        "840b452f3433d4e88bf83e3984f436e3dfc40519156d7772c3be3a9a965332d0",
    _CI_GRID:
        "ca3ebbce38e891dca59197a7a0800d5546be2f34a1dde5f73d568b12601f9b9e",
    _CI_GRID + " --format json":
        "16ed8a204ff96fc59a8e769bd60313c91e75b312555ed63fac8833417dd5f363",
    "--sweep v0:0.5:1.5:0.25 --omega0 1":
        "4a96502547601a5efb5b8fe7adacd3b97a9be573f79d01de0d2f3f68d36b3a14",
    "--sweep v0:0.5:1.5:0.25 --omega0 1 --format json":
        "495a43b4f21f995de732ef53b611d73a8f39ec10f3c418e5c0b19e5e05519a46",
    "--a 1 --omega0 1e-150 --v0 1e150 --sweep theta:0:1:0.5":
        "a208e554cda4bedf0a61bb4024ce1d924e4808e2e7d5ee44bd3822063ea56629",
    "--a 1 --omega0 1e-150 --v0 1e150 --sweep theta:0:1:0.5 --format json":
        "0f136a1900b471a74ccf58aff06d960d220c50c48567a1f689e60028b7bf7309",
}
ORDERING_DIGESTS = {
    "--seg-a 1:0.5:1:0 --seg-b 1:0.5:2:1 --gap 0.5":
        "5a7cedd097ab88e8293a42105a2c5c656fa3b85595e6fbc4db182786c07ea6c1",
    "--seg-a 1:0.5:1:0 --seg-b 1:0.5:2:1 --gap 0.5 --format json":
        "9c5e965a6f89d87d5b38d104c0d8a2593a6d3dd3a7f27250f279665b1fa0a771",
}


@pytest.mark.parametrize("command, args", [
    *(("sweep", args) for args in SWEEP_DIGESTS),
    *(("ordering", args) for args in ORDERING_DIGESTS),
])
def test_sweep_and_ordering_bytes_pinned(tmp_path, command, args):
    digests = SWEEP_DIGESTS if command == "sweep" else ORDERING_DIGESTS
    out = tmp_path / "out"
    assert main([command, *args.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[args]


class TestSolve:
    def test_text_output(self):
        proc = run_cli("solve", "--a", "1", "--v0", "0.3")
        assert proc.returncode == 0
        assert "c7" in proc.stdout
        assert "max route difference" in proc.stdout
        assert "quaternionic fraction" in proc.stdout

    def test_json_output(self):
        proc = run_cli("solve", "--format", "json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["config"]["a"] == 1
        assert set(data["amplitudes"]) == {f"c{i}" for i in range(1, 9)}
        assert data["max_route_difference"] < 1e-12
        assert abs(data["quaternionic_fraction"] - 0.0811723202060026) < 1e-10

    def test_csv_output(self):
        proc = run_cli("solve", "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "amplitude,re_solve,im_solve,re_closed,im_closed"
        assert len(lines) == 9

    def test_invalid_angle_exits_2(self):
        proc = run_cli("solve", "--theta", "9")
        assert proc.returncode == 2
        assert "theta" in proc.stderr

    def test_negative_exponent_form_potential_rejected(self):
        proc = run_cli("solve", "--v0", "-1e-3")
        assert proc.returncode == 2
        assert proc.stderr == "error: potential must satisfy v0 >= 0, got -0.001\n"

    def test_degenerate_potential_answered(self):
        # V0 = omega0: both routes answer in the entire interior basis
        proc = run_cli("solve", "--v0", "1", "--omega0", "1", "--format", "json")
        assert proc.returncode == 0 and proc.stderr == ""
        data = json.loads(proc.stdout)
        assert data["wavenumbers"]["k_minus"] == 0
        assert data["max_route_difference"] <= 1e-15
        assert data["condition"] < 100.0
        proc = run_cli("field", "--v0", "1", "--omega0", "1")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.count(",barrier\n") == 41      # x = 0, 0.025, ..., 1

    def test_non_finite_matrix_exits_2(self):
        # a * k would overflow; BarrierSpec's float-range rule exits 2
        # before any matching matrix is built
        proc = run_cli("solve", "--a", "1e308", "--omega0", "10")
        assert proc.returncode == 2

    def test_high_frequency_is_well_conditioned(self):
        # omega0 = 1e8 (a and V0 along) is the physics of omega0 = 1, and the
        # balanced system solves it at cond_1 12 with no warning
        proc = run_cli("solve", "--omega0", "1e8")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "condition estimate 1.181e+01\n" in proc.stdout
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
            "7cbfdb529af5983bd3c877761c52068de4d8f63eec567e7c4ac8a123eb419e0a"

    def test_pole_of_a_huge_barrier_answers(self):
        # V0 = omega0 = 1e17 at theta = 0: |c7| = 2e-17 from the slow branch
        # alone, which the weighted blocks keep beside the fast one
        proc = run_cli("solve", "--theta", "0", "--omega0", "1e17", "--v0", "1e17")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "quaternionic fraction 0\n" in proc.stdout

    def test_badly_conditioned_warning_printed(self):
        code = _ILL_CONDITIONED_SOLVE + ("cli.solve_spec = ill_conditioned\n"
                                         "sys.exit(cli.main(['solve']))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ("matching matrix badly conditioned: "
                               "cond_1 = 7.024e+09 (theta=1.5708)\n")

    def test_badly_conditioned_warning_logged_once(self, caplog):
        namespace = {}
        exec(_ILL_CONDITIONED_SOLVE, namespace)
        spec = BarrierSpec(1.0, 0.3, 1.0, math.pi / 2, 0.0)
        with caplog.at_level(logging.WARNING, logger="qkg"):
            amps = namespace["ill_conditioned"](spec)
        assert matcher._COND_WARN < amps.condition < matcher._COND_REJECT
        assert amps.as_array().tobytes() == matcher.solve_spec(spec).as_array().tobytes()
        records = [r for r in caplog.records if r.name.startswith("qkg")]
        assert len(records) == 1 and records[0].levelno == logging.WARNING
        assert records[0].getMessage().startswith("matching matrix badly conditioned")

    @pytest.mark.parametrize("args", SOLVE_DIGESTS, ids=lambda args: args or "defaults")
    def test_output_bytes_pinned(self, tmp_path, args):
        out = tmp_path / "solve.out"
        assert main(["solve", *args.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SOLVE_DIGESTS[args]

    def test_unknown_subcommand_exits_2(self):
        proc = run_cli("granulate")
        assert proc.returncode == 2


def test_import_leaves_out_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qkg.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


# `qkg [COMMAND] --help` at COLUMNS=80, as argparse of Python 3.10 and 3.11
# lays it out: the flags, their order, metavars, choices and help texts.
HELP = {
    "": """\
usage: qkg [-h] {solve,sweep,field,ordering,verify} ...

scattering off rectangular quaternionic potentials

positional arguments:
  {solve,sweep,field,ordering,verify}
    solve               amplitudes for a single barrier
    sweep               scan one or two parameters
    field               sample the wavefunction
    ordering            swap two barriers and compare transmission
    verify              run the verification suite

options:
  -h, --help            show this help message and exit
""",
    "solve": """\
usage: qkg solve [-h] [--a A] [--v0 V0] [--omega0 OMEGA0] [--theta THETA]
                 [--phi PHI] [--format {text,csv,json}] [--out OUT]
                 [--config CONFIG]

options:
  -h, --help            show this help message and exit
  --a A                 barrier width
  --v0 V0               potential magnitude
  --omega0 OMEGA0       incident frequency
  --theta THETA         polar angle of the imaginary direction
  --phi PHI             azimuthal angle of the imaginary direction
  --format {text,csv,json}
                        output format (default: text)
  --out OUT             write output to this file
  --config CONFIG       key=value defaults file
""",
    "sweep": """\
usage: qkg sweep [-h] [--a A] [--v0 V0] [--omega0 OMEGA0] [--theta THETA]
                 [--phi PHI] [--sweep PARAM:START:STOP:STEP]
                 [--workers WORKERS] [--format {csv,json}] [--out OUT]
                 [--config CONFIG]

options:
  -h, --help            show this help message and exit
  --a A                 barrier width
  --v0 V0               potential magnitude
  --omega0 OMEGA0       incident frequency
  --theta THETA         polar angle of the imaginary direction
  --phi PHI             azimuthal angle of the imaginary direction
  --sweep PARAM:START:STOP:STEP
                        axis to scan; repeat once for a 2-d grid
  --workers WORKERS     ignored: a sweep runs in one process
  --format {csv,json}   output format (default: csv)
  --out OUT             write output to this file
  --config CONFIG       key=value defaults file
""",
    "field": """\
usage: qkg field [-h] [--a A] [--v0 V0] [--omega0 OMEGA0] [--theta THETA]
                 [--phi PHI] [--xmin XMIN] [--xmax XMAX] [--points POINTS]
                 [--format {csv,json}] [--out OUT] [--config CONFIG]

options:
  -h, --help           show this help message and exit
  --a A                barrier width
  --v0 V0              potential magnitude
  --omega0 OMEGA0      incident frequency
  --theta THETA        polar angle of the imaginary direction
  --phi PHI            azimuthal angle of the imaginary direction
  --xmin XMIN          left edge of the grid
  --xmax XMAX          right edge of the grid (default: a + 2)
  --points POINTS      number of samples
  --format {csv,json}  output format (default: csv)
  --out OUT            write output to this file
  --config CONFIG      key=value defaults file
""",
    "ordering": """\
usage: qkg ordering [-h] [--seg-a LENGTH:V0:THETA:PHI]
                    [--seg-b LENGTH:V0:THETA:PHI] [--gap GAP]
                    [--omega0 OMEGA0] [--format {text,json}] [--out OUT]
                    [--config CONFIG]

options:
  -h, --help            show this help message and exit
  --seg-a LENGTH:V0:THETA:PHI
                        first barrier
  --seg-b LENGTH:V0:THETA:PHI
                        second barrier
  --gap GAP             free gap between them
  --omega0 OMEGA0       incident frequency
  --format {text,json}  output format (default: text)
  --out OUT             write output to this file
  --config CONFIG       key=value defaults file
""",
    "verify": """\
usage: qkg verify [-h]

options:
  -h, --help  show this help message and exit
""",
}


@pytest.mark.parametrize("command", HELP, ids=lambda command: command or "qkg")
def test_help_text_pinned(command):
    proc = subprocess.run([sys.executable, "-m", "qkg.cli", *command.split(), "--help"],
                          capture_output=True, text=True, env=dict(os.environ, COLUMNS="80"))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == HELP[command]


@pytest.mark.parametrize("args", [
    ("solve", "--a", "1e308", "--omega0", "10"),
    ("solve", "--omega0", "1e200"),
    ("sweep", "--sweep", "omega0:1e200:1e200:1"),
    ("sweep", "--sweep", "a:1e308:1e308:1", "--omega0", "10"),
    ("field", "--omega0", "1e200"),
    # each axis is in range on its own; a * omega0 overflows inside the grid
    ("sweep", "--sweep", "a:1e307:1e307:1", "--sweep", "omega0:1:20:1"),
    # each bound is finite; the grid's span overflows
    ("sweep", "--sweep=theta:-1e308:1e308:1e307"),
    ("field", "--xmin=-1e308", "--xmax", "1e308", "--points", "5"),
    # the span is finite; the exterior phase omega0 * xmax overflows
    ("field", "--omega0", "1e13", "--a", "0.3", "--xmin", "1e9", "--xmax",
     "1.7976931348623157e308", "--points", "2"),
    ("solve", "--omega0", "1e-300", "--v0", "0"),
], ids=" ".join)
def test_out_of_float_range_exits_2_with_one_line(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "float range" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_library_logs_nothing_without_a_handler():
    code = (_ILL_CONDITIONED_SOLVE
            + "import math\n"
            "from qkg import BarrierSpec\n"
            "amps = ill_conditioned(BarrierSpec(1, 0.3, 1, math.pi / 2, 0))\n"
            "assert amps.condition > matcher._COND_WARN\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""


@pytest.mark.parametrize("fmt, written", [
    ("csv", "x,region\n1.5,left\n2.5,left\n"),
    ("json", '{"config": {"a": 1}, "columns": ["x", "region"], '
             '"rows": [[1.5, "left"], [2.5, "left"]'),
], ids=("csv", "json"))
def test_table_rows_stream_before_the_source_ends(monkeypatch, fmt, written):
    # each chunk of rows is written as it comes, so no format holds the
    # table whole: the source of chunks fails at row 2, on a chunk edge
    names = cli._text(["left" if fmt == "csv" else json.dumps("left")])
    x = np.array([1.5, 2.5, 3.5])

    def chunks():
        for start in range(0, len(x), cli._CHUNK):
            if start >= 2:
                raise RuntimeError("column source failed")
            rows = slice(start, start + cli._CHUNK)
            yield [x[rows], np.repeat(names, len(x[rows]), axis=0)]

    for chunk in (1, 2):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        handle = io.StringIO()
        with pytest.raises(RuntimeError, match="column source failed"):
            cli._write_table(handle, fmt, {"a": 1.0}, ["x", "region"], chunks())
        assert handle.getvalue() == written


class TestFloatRenderer:
    """The table writer's numpy renderer prints what '%.17g' % x prints."""

    @staticmethod
    def check(values):
        values = np.asarray(values, dtype=float)
        lines = np.concatenate([render(values), np.full((values.size, 1), 10, np.uint8)],
                               axis=1).tobytes().translate(None, b"\0").decode("ascii")
        assert lines.splitlines() == ["%.17g" % v for v in values.tolist()]

    @staticmethod
    def floats(bits):
        return np.asarray(bits, dtype=np.uint64).view(np.float64)

    @given(st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=500, deadline=None)
    def test_any_bit_pattern(self, bits):
        self.check(self.floats([bits]))

    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @settings(max_examples=500, deadline=None)
    def test_any_float(self, x):
        self.check([x, -x])

    def test_seeded_draws(self):
        # 2^20 draws in chunks: uniform on [0, 1), log-uniform over 1e-12..1e17
        # with either sign, and raw bit patterns (both signs, subnormals,
        # inf and nan included)
        rng = np.random.default_rng(20160415)
        for _ in range(16):
            self.check(rng.random(1 << 14))
            self.check(rng.choice([-1.0, 1.0], 1 << 15) * 10 ** rng.uniform(-12, 17, 1 << 15))
            self.check(self.floats(rng.integers(0, 2 ** 64, 1 << 14, dtype=np.uint64,
                                                endpoint=False)))

    def test_powers_of_ten_and_their_neighbours(self):
        tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
        for x in (tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)):
            self.check(np.concatenate([x, -x]))

    def test_half_way_ties_at_the_17th_digit(self):
        # x = j / 2^(k+1) with j odd and j 5^k odd makes x 10^k = j 5^k / 2
        # an exact tie between two 17-digit integers; half go to the even
        # neighbour below, half to the one above
        rng = np.random.default_rng(7)
        ties = []
        for k in range(1, 21):
            lo, hi = -(-2 * 10 ** 16 // 5 ** k), min(2 * 10 ** 17 // 5 ** k, 2 ** 53)
            for j in rng.integers(lo, hi, 200).tolist():
                if j | 1 < hi:
                    ties.append(((j | 1) / 2 ** (k + 1), k))
        assert len(ties) > 3000
        assert all(Fraction(x) * 10 ** k % 1 == Fraction(1, 2) for x, k in ties)
        ties = np.array([x for x, _ in ties])
        self.check(np.concatenate([ties, -ties]))

    def test_window_edges(self):
        # the numpy window is 1e-4 <= |x| < 1e16, where '%g' prints the fixed
        # form: each edge, values that round across it or across a power of
        # ten, and eight ulps either side of each
        x = np.array([1e-4, 1e16, 9.99999999999999995e-5, 9999999999999999.0,
                      1e15, 0.001, 1.0, 99999999999999.99, 0.99999999999999999])
        for _ in range(8):
            x = np.unique(np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)]))
        self.check(np.concatenate([x, -x]))

    def test_fallback_cells_keep_their_whole_text(self):
        # cells outside the window print through '%.17g' in a field wide
        # enough for the longest text; a 22-byte field once cut
        # 2.8959020883846385e-300, which `qkg sweep --a 1 --omega0 1e-150
        # --v0 1e150` prints, to ...e-30
        self.check([2.8959020883846385e-300, -2.2250738585072014e-308,
                    -1.7976931348623157e308, 5e-324, -5e-324, 0.0, -0.0,
                    math.inf, -math.inf, math.nan, 1.0773237722871074e-300,
                    9.9999999999999991e-5, 1e16, -1.2345678901234567e-100])


class TestSweep:
    def test_requires_axis(self):
        proc = run_cli("sweep")
        assert proc.returncode == 2

    @pytest.mark.parametrize("sweep", [
        "bogus:0:1:0.1",        # unknown parameter
        "theta:0:1:0",          # zero step
        "theta:1:0:0.1",        # reversed bounds
        "theta:0:1",            # missing field
        "theta:x:1:0.1",        # not a number
    ])
    def test_bad_axis_exits_2(self, sweep):
        proc = run_cli("sweep", "--sweep", sweep)
        assert proc.returncode == 2

    def test_csv_grid(self):
        proc = run_cli("sweep", "--sweep", "theta:0:1:0.25")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == ("theta,abs_c1,abs_c2,abs_c7,abs_c8,"
                            "quaternionic_fraction")
        assert len(lines) == 6
        assert lines[1].startswith("0,")

    def test_underflowing_fraction_is_a_number(self):
        # |c7| = 2.9e-300 squares to 0; the fraction is still defined
        args = ("sweep", "--a", "1", "--omega0", "1e-150", "--v0", "1e150",
                "--sweep", "theta:0:1:0.5")
        proc = run_cli(*args)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[2] == "0.5,1,0,2.8959020883846385e-300,0,0"
        rows = json.loads(run_cli(*args, "--format", "json").stdout)["rows"]
        assert [row[-1] for row in rows] == [0, 0, 0]

    def test_underflowing_fraction_rescaled(self, monkeypatch, capsys):
        # both magnitudes nonzero, both squares 0: 4^2 / (3^2 + 4^2)
        def grid(a, v0, omega0, theta, phi):
            shape = np.shape(theta)     # the block's theta points
            return np.array([np.full(shape, value) for value in (1.0, 0.0, 3e-300, 4e-300)])
        monkeypatch.setattr(cli, "exterior_amplitudes_grid", grid)
        assert main(["sweep", "--sweep", "theta:0:1:1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            assert float(row.split(",")[-1]) == pytest.approx(0.64, rel=1e-15)

    def test_two_axes_row_major(self):
        proc = run_cli("sweep", "--sweep", "a:1:2:0.5",
                       "--sweep", "v0:0.1:0.3:0.1")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("a,v0,")
        assert len(lines) == 10
        # outer axis varies slowest
        assert lines[1].startswith("1,0.1")
        assert lines[2].startswith("1,0.2")
        assert lines[4].startswith("1.5,0.1")

    def test_three_axes_rejected(self):
        proc = run_cli("sweep", "--sweep", "a:1:2:1", "--sweep", "v0:0.1:0.2:0.1",
                       "--sweep", "theta:0:1:1")
        assert proc.returncode == 2

    def test_duplicate_axis_rejected(self):
        proc = run_cli("sweep", "--sweep", "a:1:2:1", "--sweep", "a:3:4:1")
        assert proc.returncode == 2

    def test_two_axis_grid_capped_like_one_axis(self):
        # each axis is within the cap, their 1001 x 1000 product is not
        proc = run_cli("sweep", "--sweep", "a:0:1000:1", "--sweep", "v0:0:999:1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: sweep grid exceeds 1000000 points\n"

    @pytest.mark.parametrize("second", [(), ("--sweep", "v0:0:0.5:0.5")],
                             ids=("alone", "with a second axis"))
    def test_one_axis_past_the_cap_rejected(self, capsys, second):
        # 3,000,001 points on theta: the grid's cap rejects the axis on its own
        assert main(["sweep", "--sweep", "theta:0:3:1e-6", *second]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: sweep grid exceeds 1000000 points\n")

    def test_pole_of_a_huge_barrier_has_a_fraction(self, capsys):
        # the same barrier as qkg solve's pole test: a number at theta = 0, not nan
        assert main(["sweep", "--a", "1", "--omega0", "1e17", "--v0", "1e17",
                     "--sweep", "theta:0:0.002:0.001"]) == 0
        out = capsys.readouterr()
        rows = [line.split(",") for line in out.out.splitlines()[1:]]
        assert out.err == "" and len(rows) == 3
        assert rows[0][0] == "0" and rows[0][-1] == "0"
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    def test_non_finite_bound_rejected(self, capsys):
        # an infinite stop would also make the span infinite; the bound is named first
        assert main(["sweep", "--sweep", "v0:0:inf:1"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: sweep bounds must be finite\n")

    def test_degenerate_point_answered(self):
        # the grid forms only the exterior, which is entire in k_minus
        proc = run_cli("sweep", "--sweep", "v0:0.5:1.5:0.25", "--omega0", "1")
        assert proc.returncode == 0 and proc.stderr == ""
        rows = [[float(x) for x in line.split(",")] for line in proc.stdout.splitlines()[1:]]
        assert [row[0] for row in rows] == [0.5, 0.75, 1.0, 1.25, 1.5]
        for row in rows:
            assert abs(sum(c * c for c in row[1:5]) - 1.0) <= 1e-12

    def test_grid_values_follow_the_scalar_rule(self):
        # the array axis is the list min(start + i * step, stop) bit for bit,
        # a zero's sign included: min keeps 0.0 against stop = -0.0
        rng = np.random.default_rng(23)
        grids = [(-0.0, -0.0, 1.0), (-1.0, -0.0, 1.0), (0.0, math.pi, math.pi / 799)]
        for _ in range(300):
            start, step = rng.uniform(-10, 10), rng.uniform(1e-3, 1.0)
            grids.append((start, start + step * rng.uniform(0, 2000), step))
        for start, stop, step in grids:
            got = cli._grid_values(start, stop, step)
            want = [min(start + i * step, stop) for i in range(len(got))]
            assert got.dtype == np.float64
            assert [math.copysign(1, v) for v in got.tolist()] == \
                [math.copysign(1, v) for v in want]
            assert got.tolist() == want

    def test_invalid_grid_point_leaves_out_file_alone(self, tmp_path):
        # the last three of 3145 points have theta > pi: the whole grid is
        # checked before the first chunk of rows is written or --out opened
        out = tmp_path / "kept.csv"
        out.write_bytes(b"old bytes")
        proc = run_cli("sweep", "--sweep", "theta:0:3.144:0.001", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: theta must lie in [0, pi]")
        assert out.read_bytes() == b"old bytes"

    def test_memory_holds_one_chunk_of_the_grid(self):
        # 4x the rows of a v0 x theta grid, of an a x omega0 grid whose slab
        # factors vary along both axes, of an omega0 x v0 grid whose float-range
        # rule reads both, or 4x the points of a 1-d sweep, leave the traced
        # peak in place: each block of rows is checked, then formed, labelled,
        # rendered and written before the next
        main(["sweep", "--sweep", "theta:0:1:0.5", "--out", os.devnull])  # render's tables
        for grid in ("--sweep v0:1:{rows}:1 --sweep theta:0:%r:%r" % (math.pi, math.pi / 799),
                     "--sweep a:1:{rows}:1 --sweep omega0:100:107.99:0.01",
                     "--sweep omega0:1:{rows}:1 --sweep v0:0:7.99:0.01",
                     "--sweep a:0:{rows}:0.001"):
            peaks = []
            for rows in (48, 192):
                tracemalloc.start()
                try:
                    assert main(["sweep", "--omega0", "100", "--phi", "1",
                                 *grid.format(rows=rows).split(), "--out", os.devnull]) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert max(peaks) < 4e6, grid
            assert max(peaks) <= 1.25 * min(peaks), grid

    def test_first_invalid_point_in_a_later_block_reported(self, tmp_path):
        # blocks of two 801-point rows: only rows v0 = 5, 6 and 7, in the third
        # and fourth blocks, hold points where 2 a (omega0 + v0) overflows
        out = tmp_path / "kept.csv"
        out.write_bytes(b"old bytes")
        proc = run_cli("sweep", "--omega0", "1", "--sweep", "v0:0:7:1",
                       "--sweep", "a:0:1.6e307:2e304", "--out", str(out))
        first = next(a for a in cli._grid_values(0.0, 1.6e307, 2e304).tolist()
                     if not math.isfinite(2.0 * a * 6.0))
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            f"error: a = {first!r}, v0 = 5.0, omega0 = 1.0 leave the float range")
        assert proc.stderr.count("\n") == 1
        assert out.read_bytes() == b"old bytes"

    def test_render_gets_at_most_one_chunk(self, monkeypatch):
        # the benchmark's 48 x 800 v0 x theta grid runs in blocks of two
        # whole rows, 1600 points; the writer renders them _CHUNK rows at a time
        sizes = []

        def counted(values):
            sizes.append(len(values))
            return render(values)

        monkeypatch.setattr(cli, "render", counted)
        assert main(["sweep", "--omega0", "1", "--phi", "1", "--sweep", "v0:0.02:0.96:0.02",
                     "--sweep", f"theta:0:{math.pi!r}:{math.pi / 799!r}",
                     "--out", os.devnull]) == 0
        assert sum(sizes) == 48 * 800
        assert max(sizes) == cli._CHUNK

    @pytest.mark.parametrize("sweep", [
        # a 1-d grid, rows of more than _CHUNK points, and an inner axis of one point
        "--sweep theta:0:3:0.0011",
        "--sweep v0:0:0.2:0.1 --sweep theta:0:3:0.0011",
        "--sweep theta:0:3:0.0011 --sweep phi:1:1:1",
    ])
    def test_axis_cells_print_each_value_as_fmt(self, capsys, sweep):
        # an axis printed as a float column or as text cells reads '%.17g'
        assert main(["sweep", *sweep.split()]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        axes = [cli._grid_values(*map(float, text.split(":")[1:]))
                for text in sweep.split()[1::2]]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
        assert [row[:len(axes)] for row in rows] == [list(map(cli._fmt, p)) for p in points]

    def test_last_point_clamped_to_stop(self):
        # 25 steps of pi/25 round one ulp past pi
        proc = run_cli("sweep", "--sweep", "theta:0:3.141592653589793:0.12566370614359174")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 27
        assert lines[-1].startswith("3.1415926535897931,")

    def test_out_of_range_angle_named(self):
        proc = run_cli("sweep", "--sweep", "theta:0:4:1")
        assert proc.returncode == 2
        assert "theta" in proc.stderr

    def test_first_invalid_point_in_row_order_reported(self):
        # theta = 4 ends the outer axis, a = -1 starts the inner one: the
        # first point, (0, -1), already fails on its width
        proc = run_cli("sweep", "--sweep", "theta:0:4:1",
                       "--sweep", "a:-1:0:1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: width must be")

    def test_parallel_output_matches_serial(self):
        args = ("sweep", "--sweep", "theta:0:3:0.1", "--v0", "0.4")
        serial = run_cli(*args, "--workers", "1")
        parallel = run_cli(*args, "--workers", "3")
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout
        assert len(serial.stdout.splitlines()) == 32

    def test_magnitudes_round_as_abs(self, capsys):
        # np.abs of a complex array can differ from abs(complex) by 1 ulp
        assert main(["sweep", "--sweep", "v0:0.1:0.9:0.1",
                     "--sweep", "theta:0:3.141592653589793:0.12566370614359174"]) == 0
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in capsys.readouterr().out.splitlines()[1:]])
        grid = exterior_amplitudes_grid(a=1.0, v0=rows[:, 0], omega0=1.0,
                                        theta=rows[:, 1], phi=0.0)
        assert rows[:, 2:6].T.tolist() == [[abs(z) for z in c.tolist()] for c in grid]

    @pytest.mark.parametrize("command, args", [
        ("sweep", "--sweep theta:0:3.141592653589793:0.3490658503988659"),
        # v0 = 0 and V0 = omega0 rows, theta from pole to pole
        ("sweep", "--sweep v0:0:2:0.5 --sweep theta:0:3.141592653589793:0.7853981633974483"),
        ("sweep", "--sweep theta:0:3.141592653589793:0.7853981633974483 --sweep a:0:1:0.5"),
        # the slab factors and e^{-i a omega0} vary along both axes
        ("sweep", "--sweep a:0:2:0.5 --sweep omega0:0.5:2:0.25"),
        # rows of 9 points: at a chunk of 7 each row runs as two blocks
        ("sweep", "--sweep a:0:1:0.5 --sweep theta:0:3.141592653589793:0.39269908169872414"),
        ("sweep", "--a 1 --omega0 1e-150 --v0 1e150 --sweep theta:0:1:0.5"),
        ("sweep", "--a 1 --omega0 1e-150 --v0 1e150 --sweep theta:0:1:0.5 --sweep phi:0:6:3"),
        # one grid point: the table is its first row only
        ("sweep", "--sweep theta:1:1:1"),
        # windows that reach all three regions, and the smallest grid
        ("field", "--a 1 --xmin -1 --xmax 2 --points 7"),
        ("field", "--a 2 --xmin -3 --xmax 5 --points 40 --theta 0"),
        ("field", "--points 2"),
        ("field", "--a 1 --omega0 1e-150 --v0 1e150 --xmin 0.5 --xmax 3 --points 4"),
        # regions [0, 7), [7, 13) and [13, 22): at a chunk of 7 the barrier
        # starts on a chunk edge and the right region inside a chunk
        ("field", "--a 5 --xmin -7 --xmax 14 --points 22"),
    ])
    def test_csv_and_json_carry_the_same_digits(self, monkeypatch, capsys, command, args):
        # both formats stream through one writer and print each axis value
        # once; every cell is the same text in both, and region is a bare
        # name in CSV and a JSON string in JSON.  Chunk edges do not show:
        # with 1 or 7 rows converted at a time both print the same bytes
        class Number(str):
            pass

        def run(fmt):
            assert main([command, *args.split(), "--format", fmt]) == 0
            return capsys.readouterr().out

        csv_text, json_text = run("csv"), run("json")
        for chunk in (1, 7):
            monkeypatch.setattr(cli, "_CHUNK", chunk)
            assert (run("csv"), run("json")) == (csv_text, json_text)
        lines = csv_text.splitlines()
        data = json.loads(json_text, parse_float=Number, parse_int=Number)
        assert lines[0].split(",") == data["columns"]
        csv_rows = [line.split(",") for line in lines[1:]]
        assert csv_rows == data["rows"]
        assert len(csv_rows) >= 1
        for csv_row, json_row in zip(csv_rows, data["rows"]):
            for column, csv_cell, json_cell in zip(data["columns"], csv_row, json_row):
                if column == "region":
                    assert type(json_cell) is str
                    assert csv_cell in ("left", "barrier", "right")
                else:
                    assert isinstance(json_cell, Number)

    def test_json_payload(self):
        proc = run_cli("sweep", "--sweep", "v0:0.1:0.5:0.1",
                       "--format", "json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["config"]["sweep"] == ["v0:0.1:0.5:0.1"]
        assert len(data["rows"]) == 5
        assert len(data["rows"][0]) == 6


# sha256 of the stdout of `qkg field ARGS`, recorded when the barrier moved to
# the entire basis {cos qx, sin(qx)/q} (rows within 1e-15 of the plane-wave
# record before it): both poles, grid points on x = 0 and x = a (also a = 0),
# one-region windows, the Klein zone (v0 > omega0) and a 100k-point grid, in
# CSV and JSON.  The two 100k-point digests were re-recorded when abs_psi
# moved to the array magnitude kernel, which squares by u * u rather than
# u ** 2 (libm pow): 17 of the 100,000 rows moved by 1 ulp in abs_psi.  Each
# digest away from theta = 0 was re-recorded when closedform.coupled moved to
# mode_ratios' weights (rows within 1.2e-16 of |psi| of their old values).
FIELD_DIGESTS = {
    "":
        "9333e8784b38cf71902a76f7e17f461637d59331c41a6d671e70d909c7910698",
    "--format json":
        "2f96fc595d5ab901707282212640a91d574e279dd33733b593d7336444924c28",
    "--theta 0":
        "e2c27bb805efebe5ce5db1e7761e4041b27c8f458a9631982c4b02a73ec547ce",
    "--theta 0 --format json":
        "34277eabebead84fdde59a9250f136122603f359438d5ca60bc132b2bd18663d",
    "--theta 3.141592653589793":
        "ea35ca6a60fce70cd65b97b0008553cd0c3b184c7f43571c7b5577cdf3b58ada",
    "--theta 3.141592653589793 --format json":
        "6fe2d1c26470f09eb9417cdaa30c82108e22514b5dc0d54e3c3dc7702db13b57",
    "--a 2 --xmin -2 --xmax 4 --points 7":
        "2fa2f4a94dad6602d50004e020be713b2a5bc9ee9fd38fb23bfd2c62a1b3890f",
    "--a 2 --xmin -2 --xmax 4 --points 7 --format json":
        "31738bfc8164c8ff04f959fc233df713ed73b8a2a3fe7a821980ae804672c253",
    "--a 0 --xmin -1 --xmax 1 --points 5":
        "325a22a358194690b063d6ba337b4d6eea60b5ee2c3a59dbae82e53976bd836b",
    "--v0 2.5 --theta 1 --phi 4 --xmin -5 --xmax 0 --points 11":
        "21685537c171bdb76067809a40a497d8a15d6b400ab122a52569309bb59f955a",
    "--xmin 1.5 --xmax 9 --points 13 --format json":
        "7937e07a88418d3ffdbbe7eef1d8ce908377fedbef455eacd459e2b7a4ef3dad",
    "--xmin 0.25 --xmax 0.75 --points 9":
        "87749b6adb500fcaebdd28a6835ee90b31e7c309869e4f447509823b96f8a304",
    "--points 100000":
        "cb1ce05f19a830ff85b4f738fc5426444b63d851dc4dab89004414fcd3231d04",
    "--points 100000 --format json":
        "4e091a6ee9e719f6d2af0d2e247075de5ff6ae0ae24235d693978025625cf6db",
}


class TestField:
    def test_csv_bounds_and_regions(self):
        proc = run_cli("field", "--a", "1", "--xmin", "-1", "--xmax", "2",
                       "--points", "7")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == ("x,re_psi_alpha,im_psi_alpha,re_psi_beta,"
                            "im_psi_beta,abs_psi,region")
        assert len(lines) == 8
        assert lines[1].endswith(",left")
        assert lines[-1].endswith(",right")

    def test_default_window_tracks_barrier(self):
        proc = run_cli("field", "--a", "4", "--points", "3", "--format", "json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        xs = [row[0] for row in data["rows"]]
        assert xs[0] == -2
        assert xs[-1] == 6

    def test_bad_point_count_exits_2(self):
        proc = run_cli("field", "--points", "1")
        assert proc.returncode == 2

    @pytest.mark.parametrize("args", FIELD_DIGESTS, ids=lambda args: args or "defaults")
    def test_output_bytes_pinned(self, tmp_path, args):
        out = tmp_path / "field.out"
        assert main(["field", *args.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FIELD_DIGESTS[args]

    def test_memory_holds_one_block_of_the_grid(self):
        # 4x the points leave the traced peak in place: each block of positions
        # is sampled, rendered and written before the next
        main(["field", "--points", "3", "--out", os.devnull])     # render's tables
        peaks = []
        for points in (100_000, 400_000):
            tracemalloc.start()
            try:
                assert main(["field", "--points", str(points), "--out", os.devnull]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 4e6
        assert max(peaks) <= 1.25 * min(peaks)

    @pytest.mark.parametrize("window", [
        ("--points", "1"),
        ("--xmin", "2", "--xmax", "1"),
        ("--omega0", "1e13", "--a", "0.3", "--xmin", "1e9", "--xmax", "1.7976931348623157e308"),
    ], ids=" ".join)
    def test_invalid_window_leaves_out_unchanged(self, tmp_path, capsys, window):
        # the window is checked before --out is opened and the first block written
        out = tmp_path / "kept.csv"
        out.write_bytes(b"old bytes")
        assert main(["field", *window, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == b"old bytes"

    def test_underflowing_abs_psi_is_a_number(self, capsys):
        # |psi|^2 ~ 1e-599 underflows to 0; quaternion.magnitude rescales
        assert main(["field", "--a", "1", "--omega0", "1e-150", "--v0", "1e150",
                     "--xmin", "0.5", "--xmax", "3", "--points", "4"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[-2:] for row in rows] == [
            ["1.0773237722871074e-300", "barrier"],
            *[["2.8959020883846385e-300", "right"]] * 3]

    def test_point_count_capped_like_sweep_grids(self):
        proc = run_cli("field", "--points", "1000001")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: field grid exceeds 1000000 points\n"

    def test_negative_exponent_form_bound(self):
        # argparse on Python 3.10 and 3.11 would take -1e-3 for an option
        window = ("--xmax", "1", "--points", "2")
        proc = run_cli("field", "--xmin", "-1e-3", *window)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli("field", "--xmin", "-0.001", *window).stdout
        assert proc.stdout == run_cli("field", "--xmin=-1e-3", *window).stdout


class TestOrdering:
    AB = ("--seg-a", "1:0.3:1.5707963267948966:0",
          "--seg-b", "1:0.3:1.5707963267948966:1.5707963267948966",
          "--gap", "2", "--omega0", "1")

    def test_text_report(self):
        proc = run_cli("ordering", *self.AB)
        assert proc.returncode == 0
        assert "d_prob" in proc.stdout
        assert "d_amp" in proc.stdout

    def test_json_matches_fixture(self):
        proc = run_cli("ordering", *self.AB, "--format", "json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert abs(data["d_prob"] - 0.049742403813018754) < 1e-10
        assert abs(data["d_amp"] - 0.05715361187449234) < 1e-10
        assert abs(data["transmission_ab"]["beta"]["re"]
                   - 0.27279746344137201) < 1e-10

    def test_degenerate_segment_answered(self):
        # seg-a sits at V0 = omega0; stacks form no interior plane waves
        proc = run_cli("ordering", "--seg-a", "1:1:0.5:0", "--seg-b", "1:0.5:2:1",
                       "--gap", "0.5", "--format", "json")
        assert proc.returncode == 0 and proc.stderr == ""
        data = json.loads(proc.stdout)
        for key in ("transmission_ab", "transmission_ba"):
            pair = data[key]
            norm2 = sum(pair[c]["re"] ** 2 + pair[c]["im"] ** 2 for c in ("alpha", "beta"))
            assert 0.0 < norm2 <= 1.0

    def test_missing_segment_exits_2(self):
        proc = run_cli("ordering", "--seg-a", "1:0.3:0:0")
        assert proc.returncode == 2

    def test_malformed_segment_exits_2(self):
        proc = run_cli("ordering", "--seg-a", "1:0.3:0", "--seg-b", "1:0.3:0:0")
        assert proc.returncode == 2

    def test_non_numeric_segment_field_exits_2(self, capsys):
        assert main(["ordering", "--seg-a", "1:x:0:0", "--seg-b", "1:0:0:0"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == (
            "", "error: bad --seg-a '1:x:0:0': all four fields must be numbers\n")

    def test_invalid_angle_exits_2(self):
        proc = run_cli("ordering", "--seg-a", "1:0.3:9:0", "--seg-b", "1:0.3:1:1")
        assert proc.returncode == 2
        assert "theta" in proc.stderr

    @pytest.mark.parametrize("args, named", [
        (("--seg-a", "1e308:0.3:1:0", "--seg-b", "1:0.3:1:1", "--omega0", "10"),
         "length = 1e+308"),
        (("--seg-a", "1:0.3:1:0", "--seg-b", "1:0.3:1:1", "--gap", "1e308",
          "--omega0", "10"), "length = 1e+308"),
        (("--seg-a", "1e308:0:0:0", "--seg-b", "1e308:0:0:0", "--omega0", "1"),
         "total length inf"),
    ], ids=("segment length", "gap length", "total length"))
    def test_out_of_float_range_names_the_value(self, args, named):
        proc = run_cli("ordering", *args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert named in proc.stderr and "float range" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    # Extreme inputs that stay in range keep their answers, byte for byte.
    # omega0 1e-300 takes the transfer route; gap 1e308 the star products.
    @pytest.mark.parametrize("args, expect", [
        (("--omega0", "1e-300"),
         "gap=0 omega0=1e-300\n"
         "transmission a-then-b alpha=0+1.1806881311251503e-299j beta=0+0j\n"
         "transmission b-then-a alpha=0+1.1806881311251503e-299j beta=0+0j\n"
         "d_prob 0\n"
         "d_amp 0\n"),
        (("--gap", "1e308", "--omega0", "1"),
         "gap=1e+308 omega0=1\n"
         "transmission a-then-b alpha=-0.066790894953799806+0.83066492439172535j"
         " beta=0.0068558363170150016+0.34711969209914928j\n"
         "transmission b-then-a alpha=-0.14405594862242202+0.85586121328931997j"
         " beta=0.050136975242670079+0.38789273906930832j\n"
         "d_prob 0.09122070265769322\n"
         "d_amp 0.081269560676960229\n"),
    ], ids=("omega0 1e-300", "gap 1e308"))
    def test_extreme_in_range_inputs_answer(self, args, expect):
        proc = run_cli("ordering", "--seg-a", "1:0.3:1:0",
                       "--seg-b", "1:0.3:1:1", *args)
        assert proc.returncode == 0
        assert proc.stdout == expect


class TestVerifyCommand:
    def test_suite_passes(self):
        proc = run_cli("verify")
        assert proc.returncode == 0
        assert "[PASS] 1 oracle-equivalence" in proc.stdout
        assert "[PASS] 9 determinism" in proc.stdout
        assert "[PASS] 10 stack-unitarity" in proc.stdout

    def test_failed_criterion_exits_1(self, monkeypatch, capsys):
        results = [verify.CheckResult(index, f"check-{index}", index != 4, "detail", 0.0)
                   for index in range(1, 11)]
        monkeypatch.setattr(verify, "run_all", lambda: results)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] 4 check-4            detail (0.00s)\n" in out
        assert out.endswith("total 0.00s, 9/10 passed\n")

    def test_quick_flag_rejected(self):
        # the suite has one configuration, the full floor
        proc = run_cli("verify", "--quick")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments: --quick" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_workers_flag_rejected(self):
        # verify runs no sweep pool, so it takes no worker count
        proc = run_cli("verify", "--workers", "3")
        assert proc.returncode == 2
        assert "unrecognized arguments: --workers" in proc.stderr

    def test_config_flag_rejected(self):
        # verify reads no settings, so it takes no defaults file
        proc = run_cli("verify", "--config", "x")
        assert proc.returncode == 2
        assert "unrecognized arguments: --config" in proc.stderr

    def test_inject_perturbation_flag_rejected(self):
        # the gate's trip test lives in test_acceptance, on a monkeypatch
        proc = run_cli("verify", "--inject-perturbation")
        assert proc.returncode == 2
        assert "unrecognized arguments: --inject-perturbation" in proc.stderr


class TestConfigAndOutput:
    def test_config_file_with_flag_override(self, tmp_path):
        conf = tmp_path / "defaults.conf"
        conf.write_text("# base point\na = 2.5\nv0 = 0.4\ntheta = 0.9\n")
        proc = run_cli("solve", "--config", str(conf), "--v0", "0.2",
                       "--format", "json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["config"]["a"] == 2.5
        assert data["config"]["v0"] == 0.2            # flag wins
        assert data["config"]["theta"] == 0.9
        assert data["config"]["phi"] == 0             # built-in default

    def test_malformed_config_exits_2(self, tmp_path):
        conf = tmp_path / "broken.conf"
        conf.write_text("a 2.5\n")
        proc = run_cli("solve", "--config", str(conf))
        assert proc.returncode == 2

    def test_missing_config_exits_2(self):
        proc = run_cli("solve", "--config", "/nonexistent/qkg.conf")
        assert proc.returncode == 2

    @pytest.mark.parametrize("command, error", [
        (("solve",), "unknown format 'xml'"),
        (("sweep", "--sweep", "theta:0:1:0.5"), "sweep supports csv or json output"),
        (("field",), "field supports csv or json output"),
        (("ordering", "--seg-a", "1:0.3:1:0", "--seg-b", "1:0.3:1:1"),
         "ordering supports text or json output"),
    ], ids=("solve", "sweep", "field", "ordering"))
    def test_bad_config_format_leaves_out_file_alone(self, tmp_path, command, error):
        conf = tmp_path / "xml.conf"
        conf.write_text("format = xml\n")
        out = tmp_path / "kept.txt"
        out.write_bytes(b"old bytes")
        proc = run_cli(*command, "--config", str(conf), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {error}\n"
        assert out.read_bytes() == b"old bytes"

    def test_unknown_config_key_leaves_out_file_alone(self, tmp_path):
        conf = tmp_path / "typo.conf"
        conf.write_text("# base point\na = 2\nthetaa = 0.1\n")
        out = tmp_path / "kept.txt"
        out.write_bytes(b"old bytes")
        proc = run_cli("solve", "--config", str(conf), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {conf}:3: unknown config key 'thetaa'\n"
        assert out.read_bytes() == b"old bytes"

    @pytest.mark.parametrize("command, line, error", [
        (("field",), "points = many",
         "config key 'points': invalid literal for int() with base 10: 'many'"),
        (("ordering", "--seg-a", "1:0.3:1:0", "--seg-b", "1:0.3:1:1"), "gap = x",
         "config key 'gap': could not convert string to float: 'x'"),
        (("field",), "xmin = x", "config key 'xmin': could not convert string to float: 'x'"),
    ], ids=("points", "gap", "xmin"))
    def test_config_value_failing_its_cast_leaves_out_file_alone(self, tmp_path, command,
                                                                 line, error):
        conf = tmp_path / "cast.conf"
        conf.write_text(line + "\n")
        out = tmp_path / "kept.txt"
        out.write_bytes(b"old bytes")
        proc = run_cli(*command, "--config", str(conf), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {error}\n"
        assert out.read_bytes() == b"old bytes"

    def test_config_negative_xmin_starts_the_field_grid(self, tmp_path):
        conf = tmp_path / "window.conf"
        conf.write_text("xmin = -1\npoints = 3\n")
        proc = run_cli("field", "--config", str(conf))
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        assert [float(row[0]) for row in rows] == [-1.0, 1.0, 3.0]

    def test_shared_config_file(self, tmp_path):
        # keys one command ignores are ones another command reads
        conf = tmp_path / "shared.conf"
        conf.write_text("a = 2\nomega0 = 1\npoints = 5\nxmax = 3\n"
                        "seg_a = 1:0.3:1:0\nseg_b = 1:0.3:1:1\ngap = 0.5\n")
        for command in (("solve",), ("sweep", "--sweep", "theta:0:1:0.5"), ("field",),
                        ("ordering",)):
            proc = run_cli(*command, "--config", str(conf))
            assert proc.returncode == 0, proc.stderr
        assert run_cli("field", "--config", str(conf)).stdout.count("\n") == 6

    def test_config_format_used(self, tmp_path):
        conf = tmp_path / "json.conf"
        conf.write_text("format = json\n")
        proc = run_cli("solve", "--config", str(conf))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["config"]["a"] == 1

    def test_out_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        proc = run_cli("sweep", "--sweep", "theta:0:1:0.5", "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        lines = out.read_text().splitlines()
        assert len(lines) == 4

    def test_pi_endpoint_included(self):
        # the grid is count-based, so a stop at pi lands exactly on a point
        proc = run_cli("sweep", "--sweep", f"theta:0:{math.pi}:{math.pi / 4}")
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 6
