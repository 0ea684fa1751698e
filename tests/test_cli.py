"""Command-line interface: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import time_limit
from treeforms import checks, cli
from treeforms.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_bounded(capsys, *argv, seconds=20):
    """run(), failing instead of hanging when main() does not return in time."""
    with time_limit(seconds, f"treeforms {' '.join(argv)}"):
        return run(capsys, *argv)


class TestBall:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "ball", "--q", "2", "--radius", "2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["vertices"]) == 10

    def test_invalid_q_exit_2(self, capsys):
        code, _, err = run(capsys, "ball", "--q", "1", "--radius", "2")
        assert code == 2
        assert "q must be >= 2" in err

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "ball", "--q", "2", "--radius", "1", "--format", "dot")
        assert code == 0
        assert out.count("--") == 3

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "ball.json"
        code, out, _ = run(capsys, "ball", "--q", "2", "--radius", "1",
                           "--output", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["radius"] == 1

    def test_unwritable_output_exit_3(self, capsys):
        code, _, err = run(capsys, "ball", "--q", "2", "--radius", "1",
                           "--output", "/nonexistent-dir/x.json")
        assert code == 3


class TestTower:
    def test_summary_line(self, capsys):
        code, out, _ = run(capsys, "tower", "--q", "2", "--radius", "1", "--k", "0")
        assert code == 0
        assert out.strip() == "V=4 E=6 C=1"

    def test_k1_summary(self, capsys):
        code, out, _ = run(capsys, "tower", "--q", "2", "--radius", "1", "--k", "1")
        assert code == 0
        assert out.startswith("V=6 E=6")

    def test_k_out_of_range_exit_2(self, capsys):
        code, _, err = run(capsys, "tower", "--q", "2", "--radius", "1", "--k", "5")
        assert code == 2
        assert "radius-1" in err


class TestCheck:
    def test_exactness_pass(self, capsys):
        code, out, _ = run(capsys, "check", "exactness", "--q", "2", "--radius", "4",
                           "--k", "0", "--margin", "2")
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_radon_d_pass(self, capsys):
        code, out, _ = run(capsys, "check", "radon-d", "--q", "2", "--radius", "3",
                           "--k", "1", "--seed", "7")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_stabilizer_pass(self, capsys):
        code, out, _ = run(capsys, "check", "stabilizer", "--p", "2", "--n", "1",
                           "--samples", "50")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True and payload["fixers_that_moved"] == 0

    def test_transitivity_p11(self, capsys):
        # The paths lie in the radius-1 ball, so their stabilizers are
        # enumerated modulo 11 and the extension digit is lifted lazily.
        code, out, _ = run_bounded(capsys, "check", "transitivity", "--p", "11", seconds=10)
        assert code == 0
        payload = json.loads(out)
        assert payload["root_0path"] == {"plus": True, "minus": True}
        assert payload["standard_1path"] == {"plus": True, "minus": True}
        assert payload["conclusive"] is True and payload["passed"] is True

    def test_gamma0_membership(self, capsys):
        code, out, _ = run(capsys, "check", "gamma0", "--p", "2", "--n", "1",
                           "--matrix", "1,0;2,1")
        assert code == 0 and json.loads(out)["passed"] is True
        code, out, _ = run(capsys, "check", "gamma0", "--p", "2", "--n", "2",
                           "--matrix", "1,0;2,1")
        assert code == 1 and json.loads(out)["passed"] is False
        # inline rationals, scalar-invariant membership
        code, out, _ = run(capsys, "check", "gamma0", "--p", "2", "--n", "0",
                           "--matrix", "1/3,0;0,1/3")
        assert code == 0

    def test_gamma0_bad_matrix_exit_2(self, capsys):
        code, _, _ = run(capsys, "check", "gamma0", "--p", "2", "--n", "0",
                         "--matrix", "1,2,3")
        assert code == 2
        code, _, _ = run(capsys, "check", "gamma0", "--p", "2", "--n", "0")
        assert code == 2

    def test_unknown_suite_exit_2(self, capsys):
        code, _, _ = run(capsys, "check", "nonsense")
        assert code == 2

    def test_invalid_params_exit_2(self, capsys):
        code, _, _ = run(capsys, "check", "euler", "--q", "1", "--radius", "2")
        assert code == 2

    def test_report_written(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "check", "euler", "--q", "2", "--radius", "2",
                           "--k", "1", "--output", str(path))
        assert code == 0
        assert path.read_text() == out


class TestExport:
    def test_ball_deterministic_bytes(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        run(capsys, "export", "--what", "ball", "--q", "2", "--radius", "2",
            "--outdir", str(d1))
        run(capsys, "export", "--what", "ball", "--q", "2", "--radius", "2",
            "--outdir", str(d2))
        f1 = d1 / "ball_q2r2.json"
        f2 = d2 / "ball_q2r2.json"
        assert f1.read_bytes() == f2.read_bytes()

    def test_harmonic_basis_manifest(self, capsys, tmp_path):
        code, out, _ = run(capsys, "export", "--what", "harmonic-basis", "--q", "2",
                           "--radius", "1", "--k", "0", "--outdir", str(tmp_path))
        assert code == 0
        manifest = json.loads((tmp_path / "harmonic_q2r1k0_manifest.json").read_text())
        assert manifest["dimension"] == 3
        assert manifest["dimension"] == (manifest["edges"] - manifest["vertices"]
                                         + manifest["components"])
        for name in manifest["vectors"]:
            assert (tmp_path / name).exists()

    def test_apartment_manifest_count(self, capsys, tmp_path):
        code, _, _ = run(capsys, "export", "--what", "apartments", "--q", "2",
                         "--radius", "1", "--k", "0", "--outdir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "apartments_q2r1k0.json").read_text())
        assert len(payload) == 6  # leaves * (leaves - 1)

    def test_outdir_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TREEFORMS_OUTDIR", str(tmp_path))
        code, out, _ = run(capsys, "export", "--what", "ball", "--q", "2", "--radius", "1")
        assert code == 0
        assert (tmp_path / "ball_q2r1.json").exists()

    def test_missing_outdir_exit_3(self, capsys):
        code, _, _ = run(capsys, "export", "--what", "ball", "--q", "2", "--radius", "1",
                         "--outdir", "/no/such/dir")
        assert code == 3


class TestDefaults:
    """`check <suite>` with no flags runs the suite on the flag values below
    (margin = k+2) and on its own --samples default."""

    FLAGS = {"q": 2, "radius": 3, "k": 0, "margin": 2, "seed": 0, "p": 2, "n": 0,
             "modulus": 6, "scan": False}

    @pytest.mark.parametrize("suite", sorted(set(cli.SUITES) - {"gamma0"}))
    def test_no_flags_runs_the_default_instance(self, capsys, suite):
        check = getattr(checks, "check_" + suite.replace("-", "_"))
        _, report = check(**{flag: value for flag, value in self.FLAGS.items()
                             if flag in cli.SUITES[suite]})
        code, out, err = run(capsys, "check", suite)
        assert (code, err) == (0, "")
        assert out == json.dumps(report, sort_keys=True) + "\n"


class TestBadInput:
    """Bad --p, --matrix or --k, and each of argparse's refusals: exit 2 with
    one line on stderr and no usage text, before any work."""

    @pytest.mark.parametrize("argv", [
        ("check", "gamma0", "--matrix", "1,2;4,3", "--n", "1", "--p", "1"),
        ("check", "gamma0", "--matrix", "1,2;4,3", "--n", "1", "--p", "0"),
        ("check", "gamma0", "--matrix", "1,2;4,3", "--n", "1", "--p", "4"),
        ("check", "gamma0", "--matrix", "1/0,0;0,1"),
        ("check", "padic", "--p", "4"),
        ("check", "stabilizer", "--p", "4", "--n", "1"),
        ("check", "euler", "--q", "2", "--radius", "2", "--k", "9"),
        ("check", "nonsense"),
        ("ball",),
        ("tower", "--q", "2", "--radius", "2"),
        ("check", "euler", "--q", "x"),
        ("check", "euler", "--bogus", "1"),
        ("export", "--what", "nope", "--q", "2", "--radius", "1"),
        ("ball", "--q", "2", "--radius", "1", "--format", "svg"),
    ])
    def test_exit_2_with_one_line(self, capsys, argv):
        code, out, err = run_bounded(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("treeforms: ")

    def test_help_exits_0_with_the_help_text(self, capsys):
        code, out, err = run(capsys, "--help")
        assert (code, err) == (0, "")
        assert out == cli._build_parser().format_help()
        code, out, err = run(capsys, "check", "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: treeforms check") and "--scan" in out

    def test_k_rule_matches_tower(self, capsys):
        _, _, tower_err = run(capsys, "tower", "--q", "2", "--radius", "2", "--k", "9")
        _, _, check_err = run(capsys, "check", "euler", "--q", "2", "--radius", "2",
                              "--k", "9")
        assert check_err == tower_err
        assert "need 0 <= k <= 4" in check_err


class TestValidArguments:
    """Valid sizes and margins report a verdict (exit 0 or 1), never exit 2."""

    def test_margin_sweep_exits_0_or_1(self, capsys):
        bad = []
        for q, radius in ((2, 2), (2, 3), (3, 2)):
            for k in range(4):
                for margin in range(k + 3):
                    for suite in ("loops", "primitive", "exactness"):
                        argv = ("check", suite, "--q", str(q), "--radius", str(radius),
                                "--k", str(k), "--margin", str(margin))
                        code, _, err = run(capsys, *argv)
                        if code not in (0, 1):
                            bad.append((argv, code, err))
        assert not bad, bad

    def test_every_suite_on_a_bounded_grid(self, capsys):
        """Each suite through main() on small sizes: empty stderr and exit 0,
        except primitive at margin 0 wherever that margin leaves a kernel
        element no base vertex outside its enlarged support (exit 1)."""
        calls = []
        for q, radius in ((2, 1), (2, 2), (3, 1), (3, 2)):
            size = ("--q", str(q), "--radius", str(radius))
            calls.append(("span", *size))
            for k in range(2 * radius + 1):
                sized = (*size, "--k", str(k))
                calls += [(suite, *sized) for suite in ("euler", "adjoint", "radon-d",
                                                        "equivariance")]
                calls += [(suite, *sized, "--margin", str(margin))
                          for suite in ("exactness", "loops", "primitive")
                          for margin in (0, 1, 5)]
        for p in ("2", "3", "5"):
            calls += [("padic", "--p", p, "--radius", str(radius)) for radius in (1, 2)]
            calls += [("stabilizer", "--p", p, "--n", str(n)) for n in (0, 1)]
        calls += [("transitivity", "--p", p) for p in ("2", "3")]
        calls += [("gamma0", "--matrix", matrix, "--n", n, "--p", p)
                  for matrix, n, p in (("1,2;4,3", "1", "2"), ("1,0;0,1", "0", "3"),
                                       ("1/2,1;9,2", "2", "3"))]
        failing = {("primitive", "--q", str(q), "--radius", str(radius), "--k", str(k),
                    "--margin", "0")
                   for q in (2, 3) for radius, ks in ((1, (0,)), (2, (0, 1, 2))) for k in ks}
        assert failing <= set(calls)
        bad = []
        with time_limit(60, "the bounded suite sweep"):
            for call in calls:
                code, _, err = run(capsys, "check", *call)
                if (code, err) != (1 if call in failing else 0, ""):
                    bad.append((call, code, err))
        assert not bad, bad


class TestSamplesAndN:
    """--samples and --n: the default only when omitted, bad values refused."""

    @pytest.mark.parametrize("argv", [
        ("check", "stabilizer", "--p", "2", "--n", "1", "--samples", "0"),
        ("check", "adjoint", "--q", "2", "--radius", "3", "--k", "1", "--samples", "-3"),
        ("check", "radon-d", "--q", "2", "--radius", "3", "--k", "1", "--samples", "0"),
        ("check", "loops", "--q", "2", "--radius", "3", "--k", "0", "--samples", "0"),
        ("check", "equivariance", "--q", "2", "--radius", "2", "--k", "0", "--samples", "0"),
    ])
    def test_samples_below_one_refused(self, capsys, argv):
        code, out, err = run_bounded(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "--samples" in err

    @pytest.mark.parametrize("extra,reported", [((), 200), (("--samples", "7"), 7)])
    def test_samples_reported(self, capsys, extra, reported):
        code, out, _ = run(capsys, "check", "stabilizer", "--p", "2", "--n", "1", *extra)
        assert code == 0
        assert json.loads(out)["samples"] == reported

    @pytest.mark.parametrize("argv", [
        ("check", "stabilizer", "--p", "2", "--n", "-1"),
        ("check", "gamma0", "--p", "2", "--n", "-1", "--matrix", "1,0;2,1"),
    ])
    def test_negative_n_refused(self, capsys, argv):
        code, out, err = run_bounded(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "--n" in err and "radius" not in err


class TestUnreadFlags:
    """A check flag that the suite does not read is refused: exit 2, one line."""

    @pytest.mark.parametrize("argv,flags", [
        (("check", "euler", "--seed", "0"), "--seed"),
        (("check", "transitivity", "--p", "2", "--seed", "5"), "--seed"),
        (("check", "padic", "--p", "2", "--radius", "2", "--q", "3"), "--q"),
        (("check", "exactness", "--q", "2", "--radius", "3", "--samples", "4"), "--samples"),
        (("check", "euler", "--q", "2", "--radius", "2", "--samples", "5", "--p", "4",
          "--margin", "-3", "--matrix", "zz", "--modulus", "0"),
         "--margin, --matrix, --modulus, --p, --samples"),
    ])
    def test_refused_with_one_line(self, capsys, argv, flags):
        code, out, err = run_bounded(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"treeforms: check {argv[1]} does not read {flags}\n"

    @pytest.mark.parametrize("suite", sorted(cli.SUITES))
    def test_every_flag_a_suite_reads_is_accepted(self, suite):
        values = {"q": "2", "radius": "2", "k": "0", "margin": "2", "seed": "1",
                  "samples": "3", "p": "2", "n": "0", "modulus": "4", "matrix": "1,0;0,1"}
        argv = ["check", suite, "--output", "report.json"]
        for flag in cli.SUITES[suite]:
            argv += [f"--{flag}"] + ([values[flag]] if flag in values else [])
        cli._preflight(cli._build_parser().parse_args(argv))


class TestOneParser:
    """main builds its argument parser once per process and reuses it."""

    def test_calls_share_one_parser(self, capsys, monkeypatch):
        built = []
        real = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        argv = ("check", "gamma0", "--matrix", "1,2;4,3", "--n", "1", "--p", "2")
        results = [run(capsys, *argv) for _ in range(3)]
        assert built.count("treeforms") <= 1
        assert results == [results[0]] * 3 and results[0][0] == 0

    def test_no_state_carried_between_calls(self, capsys):
        """A refused flag, --scan and a filled-in margin do not reach the next call."""
        code, _, err = run(capsys, "check", "padic", "--p", "2", "--radius", "2", "--q", "3")
        assert code == 2 and "does not read --q" in err
        code, out, _ = run(capsys, "check", "padic", "--p", "2", "--radius", "2")
        assert code == 0 and json.loads(out)["passed"] is True
        exactness = ("check", "exactness", "--q", "2", "--radius", "3", "--k", "0")
        code, out, _ = run(capsys, *exactness, "--scan", "--margin", "1")
        assert code == 0 and "minimal_passing_margin" in json.loads(out)
        code, out, _ = run(capsys, *exactness)
        report = json.loads(out)
        assert "minimal_passing_margin" not in report and report["margin"] == 2


class TestInternalError:
    """An unexpected exception exits 4 with one stderr line, no traceback."""

    def test_exit_4_with_one_line(self, capsys, monkeypatch):
        def broken(p, radius):
            raise RuntimeError("lattice table\ncorrupted")

        monkeypatch.setattr(checks, "check_padic", broken)
        code, out, err = run(capsys, "check", "padic", "--p", "2", "--radius", "2")
        assert code == 4
        assert out == ""
        assert err == "treeforms: internal error: RuntimeError: lattice table corrupted\n"

    def test_value_error_inside_a_suite_exits_4(self, capsys, monkeypatch):
        # Valid arguments pass the pre-flight; a ValueError raised by the
        # suite afterwards is a defect, not bad input.
        def broken(q, radius, k, margin):
            raise ValueError("interior rows out of range")

        monkeypatch.setattr(checks, "check_primitive", broken)
        code, out, err = run(capsys, "check", "primitive", "--q", "2", "--radius", "2")
        assert code == 4
        assert out == ""
        assert err == ("treeforms: internal error: ValueError: "
                       "interior rows out of range\n")


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "treeforms", "check", "gamma0",
                           "--matrix", "1,2;4,3", "--n", "1", "--p", "2"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
