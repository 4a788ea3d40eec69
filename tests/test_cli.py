"""CLI contract tests: output format, exit codes, CSV determinism."""
import os
import subprocess
import sys

import pytest

from lerchzeta import ConditioningError, cli
from lerchzeta.cli import main
from lerchzeta.zeros import scan_zeros


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

    def test_integral_past_sigma_11(self, capsys):
        # z != 1: the integral route serves every sigma > 0 up to the
        # binary64 range, past the overflow of x^{sigma-1} on its nodes
        code, out, _ = run_cli(capsys, "eval", "--sigma", "20", "--a", "0.5",
                               "--z", "-1", "--method", "integral")
        assert code == 0
        value = float(out.split()[0])
        assert value == pytest.approx(2.0 ** 20 - (2.0 / 3.0) ** 20, rel=1e-12)

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

    @pytest.mark.filterwarnings("error")
    def test_refusal_exit_code(self, capsys):
        # non-finite sigma on the direct routes, and an integral past binary64
        for argv in (["--sigma", "nan", "--z", "-1", "--method", "series"],
                     ["--sigma", "nan", "--z", "1", "--method", "em"],
                     ["--sigma", "200", "--z", "-1", "--method", "integral"]):
            code, out, err = run_cli(capsys, "eval", "--a", "0.5", *argv)
            assert code == 2
            assert out == ""
            assert "error" in err

    def test_series_cap_refusal_exit_code(self, capsys):
        # the 2e6-term cap leaves the tail bound above tol: a refusal that
        # names the bound, not a printed claim of 1.4e-3
        code, out, err = run_cli(capsys, "eval", "--method", "series",
                                 "--sigma", "1.5", "--a", "0.3", "--z", "-1")
        assert code == 2
        assert out == ""
        assert "tail bound 1.41e-03" in err

    def test_bad_tol_is_usage_error(self, capsys, tmp_path):
        # --tol is checked when the arguments are parsed, so every method
        # refuses it, including those that do not use it
        runs = [["eval", "--sigma", "-0.5", "--a", "0.5", "--method", m]
                for m in ("auto", "series", "integral", "fe", "em")]
        runs.append(["scan", "--a-min", "0.5", "--a-max", "0.5", "--a-step",
                     "0.1", "--z", "i", "--out", str(tmp_path / "x.csv")])
        for argv in runs:
            for tol in ("0", "-1e-9", "nan"):
                with pytest.raises(SystemExit) as excinfo:
                    main(argv + [f"--tol={tol}"])
                assert excinfo.value.code == 2
                assert "tol must be positive" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

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
                  "--z", "1", "--tol", "1e-8"]
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
                     "0.1", "--z=-1,0.5", "--tol", "1e-8",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        z_res = sorted(float(r.split(",")[1]) for r in rows)
        assert z_res == [-1.0, 0.5]

    def test_unwritable_path(self, capsys, monkeypatch, tmp_path):
        # the path is checked before the first cell is scanned
        def no_scan(*args, **kwargs):
            raise AssertionError("scan_zeros called before --out was opened")

        monkeypatch.setattr(cli, "scan_zeros", no_scan)
        out = str(tmp_path / "missing-dir" / "x.csv")
        code = main(["scan", "--a-min", "0.4", "--a-max", "0.4", "--a-step",
                     "0.1", "--z", "1", "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert f"cannot write {out}" in err

    @pytest.mark.parametrize("flag, value", [
        ("--a-min", "nan"), ("--a-min", "inf"), ("--a-max", "nan"),
        ("--a-max", "inf"), ("--a-step", "nan"), ("--a-step", "inf"),
        ("--a-min", "0"), ("--a-min", "-0.1"), ("--a-max", "1.5"),
        ("--a-step", "1e-300"),
    ])
    def test_bad_a_grid_is_usage_error(self, capsys, monkeypatch, tmp_path,
                                       flag, value):
        # non-finite, outside (0, 1], or a step that does not move --a-max:
        # refused before the first cell and before --out is touched
        def no_scan(*args, **kwargs):
            raise AssertionError("scan_zeros called on a bad a grid")

        monkeypatch.setattr(cli, "scan_zeros", no_scan)
        grid = {"--a-min": "0.4", "--a-max": "0.4", "--a-step": "0.1",
                flag: value}
        out = tmp_path / "x.csv"
        code = main(["scan"] + [f"{k}={v}" for k, v in grid.items()]
                    + ["--z", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert flag in err
        assert not out.exists()

    @pytest.mark.parametrize("zspec", [
        ",", "1,2", "-1.0000000000001", "0.5,-1.5", "0,0.5", "nan", "2j",
    ])
    def test_bad_z_list_is_usage_error(self, capsys, monkeypatch, tmp_path,
                                       zspec):
        # an empty list, or any z that classify or scan_zeros refuses, is
        # refused before the first cell and before --out is touched
        scanned = []

        def counted(*args, **kwargs):
            scanned.append(args)
            return scan_zeros(*args, **kwargs)

        monkeypatch.setattr(cli, "scan_zeros", counted)
        out = tmp_path / "x.csv"
        code = main(["scan", "--a-min", "0.4", "--a-max", "0.4", "--a-step",
                     "0.1", f"--z={zspec}", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "--z" in err
        assert scanned == []
        assert not out.exists()

    def test_failed_scan_leaves_out_as_it_was(self, capsys, monkeypatch,
                                              tmp_path):
        # a cell that raises: a missing --out stays missing and an existing
        # one keeps its bytes
        def refuse(*args, **kwargs):
            raise ConditioningError("refused cell")

        monkeypatch.setattr(cli, "scan_zeros", refuse)
        missing = tmp_path / "missing.csv"
        existing = tmp_path / "existing.csv"
        existing.write_bytes(b"a,z_re\nold rows\n")
        for out in (missing, existing):
            code = main(["scan", "--a-min", "0.4", "--a-max", "0.4", "--a-step",
                         "0.1", "--z", "1", "--out", str(out)])
            assert code == 2
            assert "refused cell" in capsys.readouterr().err
        assert not missing.exists()
        assert existing.read_bytes() == b"a,z_re\nold rows\n"

    @staticmethod
    def _fail_second_cell(monkeypatch):
        # the first cell is scanned, the second raises
        scanned = []

        def refuse_second(*args, **kwargs):
            scanned.append(args)
            if len(scanned) == 2:
                raise ConditioningError("refused second cell")
            return scan_zeros(*args, **kwargs)

        monkeypatch.setattr(cli, "scan_zeros", refuse_second)
        return ["scan", "--a-min", "0.1", "--a-max", "0.1", "--a-step", "1",
                "--z=1,-1", "--tol", "1e-8"]

    def test_failed_scan_keeps_existing_out(self, capsys, monkeypatch,
                                            tmp_path):
        out = tmp_path / "existing.csv"
        old = b"a,z_re\nold rows\n" * 50
        out.write_bytes(old)
        argv = self._fail_second_cell(monkeypatch)
        assert main(argv + ["--out", str(out)]) == 2
        assert "refused second cell" in capsys.readouterr().err
        assert out.read_bytes() == old

    def test_failed_scan_leaves_no_new_out(self, capsys, monkeypatch,
                                           tmp_path):
        out = tmp_path / "new.csv"
        argv = self._fail_second_cell(monkeypatch)
        assert main(argv + ["--out", str(out)]) == 2
        assert "refused second cell" in capsys.readouterr().err
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    def test_out_opened_once(self, capsys, monkeypatch, tmp_path):
        # one open of --out per scan, and a longer old file is replaced
        opened = []

        def counted_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counted_open, raising=False)
        out = tmp_path / "scan.csv"
        out.write_text("x" * 10_000 + "\n")
        assert main(["scan", "--a-min", "0.1", "--a-max", "0.1", "--a-step",
                     "1", "--z=1,-1", "--tol", "1e-8", "--out", str(out)]) == 0
        capsys.readouterr()
        assert opened == [str(out)]
        lines = out.read_text().splitlines()
        assert lines[0] == "a,z_re,z_im,verdict,n_brackets,roots,max_residual"
        assert len(lines) == 3


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

