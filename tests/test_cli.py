import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qkg import cli
from qkg.cli import main


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "qkg.cli", *args],
                          capture_output=True, text=True)


# sha256 of the stdout of `qkg solve ARGS`: the default spec, both poles,
# V0 = 0 and a = 0, as text, CSV and JSON.  The matcher column was recorded
# from the matcher that evaluated its gates norm by norm with np.linalg.norm;
# the closed-form column from the single slab kernel, closedform.slab_rt.
SOLVE_DIGESTS = {
    "":
        "00a3cf8ecb9cbe679a24328689a6f459a93a16ae2de7ae221bdc099dd55d1448",
    "--format csv":
        "9c51ceaecfddeac6368518abb83ab5448226a60b09da31b04b06a2c4ece97827",
    "--format json":
        "a184cecda4de586bd0660fe7a62304587d3a80313049fdb293fd7574f16a6e56",
    "--theta 0":
        "98646c7a488e55f2569333776d2f50fb5f60161af3546218a4ebeb40110a8b08",
    "--theta 0 --format csv":
        "36ce70fc8795c855e6328aa773fc6a707f779f3831643dbbc19ed530fde358dc",
    "--theta 0 --format json":
        "4853a31e20a48bca74dd7e7b9178d31d446c8bb771e24ca97eb923a9079ac288",
    "--theta 3.141592653589793":
        "4d971c3bd24c57df6cc30d90ffeb59b09f4a995f204fa9d8ca1b67f5c4053902",
    "--theta 3.141592653589793 --format csv":
        "12dd117ac66ef066fad409f72864e116c0e5c36152c483b1bc9887645d99ba6f",
    "--theta 3.141592653589793 --format json":
        "bf81c97fb3c899d5c8b9c7af09dfe3456cae1850be4a35556099f430b1ec0fa4",
    "--v0 0":
        "3b4b16443bdd90f51452938e3fdd077377205a11ddc6984b72246879abff5e77",
    "--v0 0 --format csv":
        "36117656d25d19f1ce3284bb4056a1c9ce47694b3c0f86301ceb064c78eb3775",
    "--v0 0 --format json":
        "8e74045f0c6ed443ea9acaa5c3d46fc1ed4480d7f1e0d3583dd50712951d99c5",
    "--a 0":
        "c748c7f269edd3fdaa46a5df5efc2790afb8044e499f576791c82542773c9324",
    "--a 0 --format csv":
        "1956a9cbb64f7dda4b735a232109feaab95266f0981696b69252b00f278536e0",
    "--a 0 --format json":
        "d4f946087392f62a8a32dd7ae253fd43e523603b9a03dd72f6273bb57832ff58",
}

# sha256 of the stdout of `qkg sweep ARGS` and `qkg ordering ARGS`, recorded
# before the sweep's fraction moved into closedform.quaternionic_fraction_grid:
# pi/25 steps whose last point is clamped to pi, the 48 x 800 v0 x theta grid,
# V0 = omega0, and underflowing squares, in CSV (text) and JSON.
_CI_GRID = ("--a 2 --omega0 1 --phi 1 --sweep v0:0.02:0.95:0.01978723404255319 "
            "--sweep theta:0:3.141592653589793:0.00393190569911113")
SWEEP_DIGESTS = {
    "--sweep theta:0:3.141592653589793:0.12566370614359174":
        "4801e08b5d2ddecb9db610b98d5b36a12b19cedb91172c84b786b1d1c79d8ba8",
    "--sweep theta:0:3.141592653589793:0.12566370614359174 --format json":
        "9918c6cbfe07fec494a2928f48b04b0e150218d8b6dc10f4db338dc3538b2948",
    _CI_GRID:
        "97b46d1c9bfabfdc8a6adb8a9a9673ecbbb4b3e5d8d029147cbd9b931578e7ef",
    _CI_GRID + " --format json":
        "4904abb371d55668eaf14b94be3e613251ea2e6edb8ed5fb44d80defae27542d",
    "--sweep v0:0.5:1.5:0.25 --omega0 1":
        "481cd229410da329d8b7380cb6f790ae77d21496d26401f7ffdc1cafedf37f28",
    "--sweep v0:0.5:1.5:0.25 --omega0 1 --format json":
        "c1b47f8ff3b1bfb2a31d1b67a7f2e7847d898fb6f02d75443ec517a869fe153f",
    "--a 1 --omega0 1e-150 --v0 1e150 --sweep theta:0:1:0.5":
        "a208e554cda4bedf0a61bb4024ce1d924e4808e2e7d5ee44bd3822063ea56629",
    "--a 1 --omega0 1e-150 --v0 1e150 --sweep theta:0:1:0.5 --format json":
        "0f136a1900b471a74ccf58aff06d960d220c50c48567a1f689e60028b7bf7309",
}
ORDERING_DIGESTS = {
    "--seg-a 1:0.5:1:0 --seg-b 1:0.5:2:1 --gap 0.5":
        "6939bf28de3e8f25934f48759f8180cc1f89e14dc9280934cce5d0107ab82169",
    "--seg-a 1:0.5:1:0 --seg-b 1:0.5:2:1 --gap 0.5 --format json":
        "d79d6b19e607d882fb2909a70d8ded726e69b6f67e41a37b71f34f5535878214",
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

    def test_degenerate_potential_exits_2(self):
        # solve and field form the interior plane waves, which degenerate
        for command in ("solve", "field"):
            proc = run_cli(command, "--v0", "1", "--omega0", "1")
            assert proc.returncode == 2
            assert proc.stderr == ("error: k_minus ~ 0 for v0 = 1.0, omega0 = 1.0; "
                                   "the four-plane-wave interior basis degenerates\n")

    def test_non_finite_matrix_exits_2(self):
        # a * k would overflow; BarrierSpec's float-range rule exits 2
        # before any matching matrix is built
        proc = run_cli("solve", "--a", "1e308", "--omega0", "10")
        assert proc.returncode == 2

    def test_badly_conditioned_warning_printed(self):
        proc = run_cli("solve", "--omega0", "1e8")
        assert proc.returncode == 0
        assert proc.stderr == ("matching matrix badly conditioned: "
                               "cond_1 = 6.820e+08 (theta=1.5708)\n")
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
            "716dc14131464a1cdeb9254f14e491bb3f2843828727498ef81ae3333155b0e8"

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
    code = ("import math\n"
            "from qkg import BarrierSpec, solve_spec\n"
            "amps = solve_spec(BarrierSpec(1, 0.3, 1e8, math.pi / 2, 0))\n"
            "assert amps.condition > 1e8\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""


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
        def grid(**params):
            shape = np.shape(params["theta"])
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

    def test_degenerate_point_answered(self):
        # the grid forms only the exterior, which is entire in k_minus
        proc = run_cli("sweep", "--sweep", "v0:0.5:1.5:0.25", "--omega0", "1")
        assert proc.returncode == 0 and proc.stderr == ""
        rows = [[float(x) for x in line.split(",")] for line in proc.stdout.splitlines()[1:]]
        assert [row[0] for row in rows] == [0.5, 0.75, 1.0, 1.25, 1.5]
        for row in rows:
            assert abs(sum(c * c for c in row[1:5]) - 1.0) <= 1e-12

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

    def test_json_payload(self):
        proc = run_cli("sweep", "--sweep", "v0:0.1:0.5:0.1",
                       "--format", "json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["config"]["sweep"] == ["v0:0.1:0.5:0.1"]
        assert len(data["rows"]) == 5
        assert len(data["rows"][0]) == 6


# sha256 of the stdout of `qkg field ARGS`, recorded from the array record
# over the closed form of the single slab kernel: both poles, grid points on
# x = 0 and x = a (also a = 0), one-region windows, the Klein zone
# (v0 > omega0) and a 100k-point grid, in CSV and JSON.
FIELD_DIGESTS = {
    "":
        "55c8526404e5ab4659a1bfafad679faba15d32da5c828e06a56520a0452ced13",
    "--format json":
        "65b39688185e349fc167e2fe60c0a20addfb97ee5db56afa598a1dd5ba8dc1fa",
    "--theta 0":
        "73a68b1ec0a3ec2552bedfa658f3e0c4380fb95f70404d65cb1e29e31d8657dc",
    "--theta 0 --format json":
        "a0b2f3b24e932c6dcd6dd0c2d9f8bcbdcd47eae4d09912a33c0361e3e281d6a0",
    "--theta 3.141592653589793":
        "62497e2f051f5c5ef69740c34aa256d12ec23acab9b1bd451298444665f2e9b9",
    "--theta 3.141592653589793 --format json":
        "bc9615164731247215eefd75f57681592fa926313dd694b5a8ff4022a1797ecc",
    "--a 2 --xmin -2 --xmax 4 --points 7":
        "580d867e6c06ed6e1221d1856ebe9711eb25e51f7e4b3f6246a7e8af2c558705",
    "--a 2 --xmin -2 --xmax 4 --points 7 --format json":
        "a3ae0d179476eb2c65c2c84cf42a014d2795a500d411a0eef66bb7f9fc814f04",
    "--a 0 --xmin -1 --xmax 1 --points 5":
        "e92a1a83e0038061704491d43b0b289acf39ecdea598140ed739e490ea8a9d69",
    "--v0 2.5 --theta 1 --phi 4 --xmin -5 --xmax 0 --points 11":
        "66cc2f2c5322b26cfb2f56556322ae79302aaae9e954adff027d910cdc7018bb",
    "--xmin 1.5 --xmax 9 --points 13 --format json":
        "4fe6d35c13cd9ebbf9be565f27325d8d92dfe005cd26c99c709c0a309bc26f39",
    "--xmin 0.25 --xmax 0.75 --points 9":
        "4764889caa814059ae61d76965abea866f2acdd2ae83cc5de4b373c331b975a3",
    "--points 100000":
        "6fe841d97dd5a2255d1092cbb8d24dfbc3c4a9d1eeaca66a2428f5479a2e154b",
    "--points 100000 --format json":
        "35c596a1d80d9ad0cffb9077082351d699c0d5a5b4c50313848da31ea47cbe26",
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

    def test_underflowing_abs_psi_is_a_number(self, capsys):
        # |psi|^2 ~ 1e-599 underflows to 0; quaternion.magnitude rescales
        assert main(["field", "--a", "1", "--omega0", "1e-150", "--v0", "1e150",
                     "--xmin", "0.5", "--xmax", "3", "--points", "4"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[-2:] for row in rows] == [
            ["1.0773237722871073e-300", "barrier"],
            *[["2.8959020883846385e-300", "right"]] * 3]

    def test_point_count_capped_like_sweep_grids(self):
        proc = run_cli("field", "--points", "1000001")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: field grid exceeds 1000000 points\n"


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
         "transmission a-then-b alpha=-0.066790894953800084+0.83066492439172523j"
         " beta=0.0068558363170149184+0.34711969209914928j\n"
         "transmission b-then-a alpha=-0.1440559486224223+0.85586121328931997j"
         " beta=0.050136975242670051+0.38789273906930832j\n"
         "d_prob 0.09122070265769322\n"
         "d_amp 0.08126956067696027\n"),
    ], ids=("omega0 1e-300", "gap 1e308"))
    def test_extreme_in_range_inputs_answer(self, args, expect):
        proc = run_cli("ordering", "--seg-a", "1:0.3:1:0",
                       "--seg-b", "1:0.3:1:1", *args)
        assert proc.returncode == 0
        assert proc.stdout == expect


class TestVerifyCommand:
    def test_quick_suite_passes(self):
        proc = run_cli("verify", "--quick")
        assert proc.returncode == 0
        assert "[PASS] 1 oracle-equivalence" in proc.stdout
        assert "[SKIP] 9 determinism" in proc.stdout
        assert "[PASS] 10 stack-unitarity" in proc.stdout

    def test_workers_flag_rejected(self):
        # verify runs no sweep pool, so it takes no worker count
        proc = run_cli("verify", "--quick", "--workers", "3")
        assert proc.returncode == 2
        assert "unrecognized arguments: --workers" in proc.stderr

    def test_config_flag_rejected(self):
        # verify reads no settings, so it takes no defaults file
        proc = run_cli("verify", "--quick", "--config", "x")
        assert proc.returncode == 2
        assert "unrecognized arguments: --config" in proc.stderr

    def test_inject_perturbation_flag_rejected(self):
        # the gate's trip test lives in test_acceptance, on a monkeypatch
        proc = run_cli("verify", "--quick", "--inject-perturbation")
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
