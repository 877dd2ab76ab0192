import json
import math
import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "qkg.cli", *args],
                          capture_output=True, text=True)


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
        proc = run_cli("solve", "--v0", "1", "--omega0", "1")
        assert proc.returncode == 2

    def test_non_finite_matrix_exits_2(self):
        # a * k overflows, so the matching matrix holds NaNs
        proc = run_cli("solve", "--a", "1e308", "--omega0", "10")
        assert proc.returncode == 2

    def test_badly_conditioned_warning_printed(self):
        proc = run_cli("solve", "--omega0", "1e8")
        assert proc.returncode == 0
        assert proc.stderr.startswith("matching matrix badly conditioned")
        assert len(proc.stderr.splitlines()) == 1

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

    def test_degenerate_point_exits_2(self):
        proc = run_cli("sweep", "--sweep", "v0:0.5:1.5:0.25", "--omega0", "1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: k_minus ~ 0 for v0 = 1.0, "
                                      "omega0 = 1.0")

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


class TestVerifyCommand:
    def test_quick_suite_passes(self):
        proc = run_cli("verify", "--quick")
        assert proc.returncode == 0
        assert "[PASS] 1 oracle-equivalence" in proc.stdout
        assert "[SKIP] 9 determinism" in proc.stdout

    def test_workers_flag_accepted(self):
        proc = run_cli("verify", "--quick", "--workers", "3")
        assert proc.returncode == 0

    def test_injected_perturbation_trips_gate(self):
        proc = run_cli("verify", "--quick", "--inject-perturbation")
        assert proc.returncode == 1
        assert "[FAIL] 1 oracle-equivalence" in proc.stdout


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
