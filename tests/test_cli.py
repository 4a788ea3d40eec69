"""CLI contract tests: output format, exit codes, CSV determinism."""
import os
import subprocess
import sys

import pytest

from lerchzeta.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_special_value_line(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--sigma", "0", "--a", "0.3",
                               "--z", "1")
        assert code == 0
        fields = out.split()
        assert len(fields) == 4
        assert float(fields[0]) == pytest.approx(0.2, abs=1e-15)
        assert float(fields[1]) == 0.0
        assert float(fields[2]) == 0.0
        assert fields[3] == "SpecialValue"

    def test_minus_one_twelfth(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--sigma", "-1", "--a", "1",
                               "--z", "1")
        assert code == 0
        assert float(out.split()[0]) == pytest.approx(-1.0 / 12.0, abs=1e-15)

    def test_fe_and_integral_agree(self, capsys):
        _, out_fe, _ = run_cli(capsys, "eval", "--sigma", "-0.5", "--a", "0.5",
                               "--z", "-1", "--method", "fe")
        _, out_int, _ = run_cli(capsys, "eval", "--sigma", "-0.5", "--a", "0.5",
                                "--z", "-1", "--method", "integral")
        v_fe = float(out_fe.split()[0])
        v_int = float(out_int.split()[0])
        assert abs(v_fe - v_int) <= 1e-6
        assert out_fe.split()[3] == "FunctionalEq"

    def test_em_method(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--sigma", "2", "--a", "1",
                               "--z", "1", "--method", "em")
        assert code == 0
        assert float(out.split()[0]) == pytest.approx(1.6449340668482264,
                                                      abs=1e-12)
        assert out.split()[3] == "EulerMaclaurin"

    def test_imaginary_unit_parsing(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--sigma", "-0.5", "--a", "0.5",
                               "--z", "i")
        assert code == 0
        assert float(out.split()[1]) != 0.0

    def test_z_re_im_flags(self, capsys):
        # --z is the one spelling of z; the old --z-re/--z-im pair is gone
        code, out, _ = run_cli(capsys, "eval", "--sigma", "2", "--a", "1",
                               "--z", "-1")
        assert code == 0
        assert float(out.split()[0]) == pytest.approx(0.8224670334241132,
                                                      abs=1e-9)  # eta(2)
        with pytest.raises(SystemExit):
            main(["eval", "--sigma", "2", "--a", "1", "--z-re", "-1"])

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--sigma", "-3", "--a", "0.5",
                                 "--z", "1")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_pole_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--sigma", "1", "--a", "0.5",
                               "--z", "1")
        assert code == 2
        assert "pole" in err


class TestScan:
    def test_deterministic_csv(self, capsys, tmp_path):
        out1 = tmp_path / "scan1.csv"
        out2 = tmp_path / "scan2.csv"
        common = ["scan", "--a-min", "0.1", "--a-max", "0.3", "--a-step", "0.1",
                  "--z", "1", "--grid-step", "0.01", "--tol", "1e-8"]
        assert main(common + ["--out", str(out1)]) == 0
        assert main(common + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "a,z_re,z_im,verdict,n_brackets,roots,max_residual"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[3] == "ZeroExists" and int(first[4]) >= 1

    def test_nonreal_z_rows(self, capsys, tmp_path):
        out = tmp_path / "unit.csv"
        code = main(["scan", "--a-min", "0.2", "--a-max", "0.4", "--a-step",
                     "0.2", "--z", "unit:1.0", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            assert cells[3] == "CaseIII"
            assert cells[4] == "0" and cells[5] == ""

    def test_real_list_z_spec(self, capsys, tmp_path):
        out = tmp_path / "list.csv"
        code = main(["scan", "--a-min", "0.4", "--a-max", "0.4", "--a-step",
                     "0.1", "--z=-1,0.5", "--grid-step", "0.01",
                     "--tol", "1e-8", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        z_res = sorted(float(r.split(",")[1]) for r in rows)
        assert z_res == [-1.0, 0.5]

    def test_unwritable_path(self, capsys):
        code = main(["scan", "--a-min", "0.4", "--a-max", "0.4", "--a-step",
                     "0.1", "--z", "1", "--grid-step", "0.01",
                     "--out", "/nonexistent-dir/x.csv"])
        _, err = capsys.readouterr().out, capsys.readouterr().err
        assert code == 2


class TestVerify:
    def test_kernels_suite_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "kernels")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        assert "checks passed" in err

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "bogus"])
        assert excinfo.value.code == 2


class TestEntryPoint:
    def test_console_script(self):
        # the child imports the package from where this process found it
        proc = subprocess.run(
            [sys.executable, "-m", "lerchzeta.cli", "eval", "--sigma", "2",
             "--a", "1", "--z", "1", "--method", "em"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 0
        assert proc.stdout.split()[3] == "EulerMaclaurin"


class TestConfigFile:
    def test_config_overrides(self, capsys, tmp_path):
        cfgfile = tmp_path / "lerch.cfg"
        cfgfile.write_text("tol = 1e-6\nmax_levels = 8\nn_max = 1024\n")
        code, out, _ = run_cli(capsys, "eval", "--sigma", "-0.5", "--a", "0.5",
                               "--z", "1", "--config", str(cfgfile))
        assert code == 0
        # flag beats file
        code, out2, _ = run_cli(capsys, "eval", "--sigma", "-0.5", "--a", "0.5",
                                "--z", "1", "--config", str(cfgfile),
                                "--tol", "1e-12")
        assert code == 0

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        cfgfile = tmp_path / "lerch.cfg"
        cfgfile.write_text("tol = 1e-6\nsplit_point = 2\n")
        code, out, err = run_cli(capsys, "eval", "--sigma", "-0.5", "--a",
                                 "0.5", "--z", "1", "--config", str(cfgfile))
        assert code == 2
        assert out == ""
        assert "split_point" in err
