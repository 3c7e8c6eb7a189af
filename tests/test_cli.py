import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qss_sim
from qss_sim import analysis, sweeps
from qss_sim.cli import main
from qss_sim.config import (
    ConfigError,
    ConfigValidationError,
    parse_kv,
    run_config_from_text,
    sweep_spec_from_text,
)
from qss_sim.protocol import MAX_ITERATIONS, ProtocolConfig, Secret
from qss_sim.sweeps import format_float, run_sweep


class TestKvParser:
    def test_basic(self):
        pairs = parse_kv("a = 1\n# comment\n\nb = pdc  # trailing\n")
        assert pairs == {"a": "1", "b": "pdc"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_kv("just some words\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError):
            parse_kv("a =\n")


class TestRunConfig:
    def test_minimal(self):
        cfg = run_config_from_text("parties = 3\nsecret_k = 0.3\n")
        assert cfg.parties == 3 and cfg.iterations == 1
        assert cfg.secrets[0].k == pytest.approx(0.3)

    def test_full(self):
        cfg = run_config_from_text(
            "parties = 2\niterations = 2\nsecrets = 0.2, 0.8\n"
            "channel = adc\nstrength = 0.5\nwmrqm_s = 0.1\nwmrqm_r = 0.2\n"
            "return_channel = pdc\nreturn_strength = 0.3\n"
        )
        assert cfg.channel.kind == "adc"
        assert cfg.wmrqm.s == 0.1 and cfg.wmrqm.r == 0.2
        assert cfg.return_channel.kind == "pdc"

    def test_secret_count_mismatch(self):
        with pytest.raises(ConfigValidationError, match=r"got 1 secrets for 2 iteration\(s\)"):
            run_config_from_text("parties = 2\niterations = 2\nsecrets = 0.5\n")

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_needs_at_least_one_iteration(self, iterations):
        with pytest.raises(ConfigValidationError, match=f"need at least 1 iteration, got {iterations}"):
            run_config_from_text(f"parties = 2\niterations = {iterations}\nsecret_k = 0.5\n")

    def test_validation_errors(self):
        with pytest.raises(ConfigValidationError):
            run_config_from_text("parties = 2\n")  # no secret
        with pytest.raises(ConfigValidationError):
            run_config_from_text("parties = 2\nsecret_k = 0.5\nwmrqm_s = 0.3\n")
        with pytest.raises(ConfigValidationError):
            run_config_from_text("parties = 2\nsecret_k = 0.5\nstrength = 0.5\n")
        with pytest.raises(ConfigValidationError):
            run_config_from_text("parties = 2\nsecret_k = 0.5\nmystery = 1\n")
        with pytest.raises(ConfigValidationError):
            run_config_from_text("parties = 1\nsecret_k = 0.5\n")

    def test_parse_errors(self):
        with pytest.raises(ConfigError):
            run_config_from_text("parties = two\nsecret_k = 0.5\n")
        with pytest.raises(ConfigError):
            run_config_from_text("secret_k = abc\n")


class TestSweepSpecParsing:
    def test_basic(self):
        spec = sweep_spec_from_text("quantity = avg_f_pd\naxis = q, 0, 1, 11\n")
        assert spec.quantities == ("avg_f_pd",)
        assert spec.axes == (("q", 0.0, 1.0, 11),)

    def test_two_axes_and_fixed(self):
        spec = sweep_spec_from_text(
            "quantity = sp2\naxis = s, 0, 0.9, 4\naxis2 = p, 0.1, 0.9, 3\nk = 0.5\nr = r_opt\n"
        )
        assert spec.fixed == {"k": 0.5, "r": "r_opt"}

    def test_errors(self):
        with pytest.raises(ConfigValidationError):
            sweep_spec_from_text("axis = q, 0, 1, 11\n")
        with pytest.raises(ConfigValidationError):
            sweep_spec_from_text("quantity = avg_f_pd\n")
        with pytest.raises(ConfigError):
            sweep_spec_from_text("quantity = avg_f_pd\naxis = q, 0, 1\n")


class TestRunCommand:
    def run_cli(self, *args):
        from io import StringIO
        import contextlib

        out = StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(args))
        return code, out.getvalue()

    def test_noiseless_three_receivers(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("parties = 3\nsecret_k = 0.3\n")
        code, out = self.run_cli("run", "--config", str(cfg))
        assert code == 0
        report = json.loads(out)
        assert report["iterations"][0]["aggregate_fidelity"] == 1.0
        assert report["iterations"][0]["success_probability"] == pytest.approx(1.0)

    def test_full_damping_aggregate_is_coin_flip(self, tmp_path):
        # aggregate fidelity under full amplitude damping is 1/2 for every
        # secret, hence also averaged over any k grid
        values = []
        for k in np.linspace(0.1, 0.9, 9):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"parties = 2\nsecret_k = {k}\nchannel = adc\nstrength = 1\n")
            code, out = self.run_cli("run", "--config", str(cfg))
            assert code == 0
            values.append(json.loads(out)["iterations"][0]["aggregate_fidelity"])
        assert np.mean(values) == pytest.approx(0.5, abs=1e-12)

    def test_five_receivers_noiseless(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("parties = 5\nsecret_k = 0.42\n")
        code, out = self.run_cli("run", "--config", str(cfg))
        assert code == 0
        report = json.loads(out)
        branches = report["iterations"][0]["branches"]
        assert len(branches) == 2**5
        assert all(b["fidelity"] == 1.0 for b in branches)

    def test_exit_codes(self, tmp_path):
        code, _ = self.run_cli("run", "--config", str(tmp_path / "absent.cfg"))
        assert code == 2
        bad = tmp_path / "bad.cfg"
        bad.write_text("no equals sign here\n")
        assert self.run_cli("run", "--config", str(bad))[0] == 2
        invalid = tmp_path / "invalid.cfg"
        invalid.write_text("parties = 1\nsecret_k = 0.5\n")
        assert self.run_cli("run", "--config", str(invalid))[0] == 3
        # post-selection extinguishes every branch: numeric domain error
        dead = tmp_path / "dead.cfg"
        dead.write_text(
            "parties = 2\nsecret_k = 1\nchannel = adc\nstrength = 0.5\n"
            "wmrqm_s = 0.3\nwmrqm_r = 1\n"
        )
        assert self.run_cli("run", "--config", str(dead))[0] == 4

    def test_config_that_is_not_utf8_is_unreadable(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe")
        assert main(["run", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read config: ")

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_report_is_independent_of_the_blas_kernel(self, tmp_path, command):
        # OPENBLAS_CORETYPE=Nehalem selects OpenBLAS kernels without fused
        # multiply-add; the report must not depend on which kernel runs.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "parties = 7\niterations = 2\nsecrets = 0.683645, 0.952465\n"
            "channel = adc\nstrength = 0.24881\nwmrqm_s = 0.123333\nwmrqm_r = 0.494117\n"
            "return_channel = adc\nreturn_strength = 0.48257\n"
        )
        argv = {"run": ["run", "--config", str(cfg)], "validate": ["validate", "--grid", "fine"]}[command]
        src = str(Path(qss_sim.__file__).resolve().parents[1])
        outputs = []
        for coretype in (None, "Nehalem"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from qss_sim.cli import main; sys.exit(main())",
                 *argv],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_zero_iterations_is_a_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("parties = 2\niterations = 0\nsecret_k = 0.5\n")
        assert main(["run", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid config: ")
        assert "at least 1 iteration" in captured.err

    def test_iterations_beyond_the_cap_is_a_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"parties = 2\niterations = {MAX_ITERATIONS + 1}\nsecret_k = 0.5\n")
        assert main(["run", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid config: ")
        assert f"at most {MAX_ITERATIONS} iterations" in captured.err
        secrets = (Secret.from_k(0.5),) * (MAX_ITERATIONS + 1)
        with pytest.raises(ValueError, match=f"at most {MAX_ITERATIONS} iterations"):
            ProtocolConfig(parties=2, secrets=secrets)

    @pytest.mark.parametrize("key", ["wmrqm_s", "wmrqm_r"])
    @pytest.mark.parametrize("value", ["1.2", "-0.1"])
    def test_measurement_strength_out_of_range_is_a_validation_error(self, tmp_path, capsys, key, value):
        strengths = {"wmrqm_s": "0.3", "wmrqm_r": "0.4", key: value}
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "parties = 2\nsecret_k = 0.5\n" + "".join(f"{k} = {v}\n" for k, v in strengths.items())
        )
        assert main(["run", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid config: ")
        assert f"measurement strength {key[-1]} must lie in [0, 1]" in captured.err
        assert "Traceback" not in captured.err

    def test_report_is_deterministic(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "parties = 2\niterations = 2\nsecrets = 0.3, 0.6\n"
            "channel = adc\nstrength = 0.4\nwmrqm_s = 0.2\nwmrqm_r = 0.3\n"
        )
        outputs = {self.run_cli("run", "--config", str(cfg))[1] for _ in range(3)}
        assert len(outputs) == 1

    def test_report_bytes_match_golden(self):
        # Three rounds at 6 qubits with adc noise, protection and adc return
        # noise: any change to the order of the simulator's floating-point
        # operations shows up here as a byte difference.
        data = Path(__file__).parent / "data"
        code, out = self.run_cli("run", "--config", str(data / "run_5p3i.cfg"))
        assert code == 0
        assert out.encode() == (data / "run_5p3i.stdout").read_bytes()

    def test_eight_qubit_report_bytes_match_benchmark_reference(self):
        # The benchmark's run_8q inputs at seed 0: two rounds on the largest
        # register (8 qubits). Its report is the benchmark's reference file.
        repo = Path(__file__).parent.parent
        code, out = self.run_cli("run", "--config", str(repo / "tests" / "data" / "run_8q_seed0.cfg"))
        assert code == 0
        assert out.encode() == (repo / "benchmarks" / "reference" / "run_8q_seed0.json").read_bytes()

    def test_register_beyond_eight_qubits_is_a_validation_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("parties = 40\nsecret_k = 0.5\n")
        assert self.run_cli("run", "--config", str(cfg))[0] == 3
        cfg.write_text("parties = 8\nsecret_k = 0.5\n")
        assert self.run_cli("run", "--config", str(cfg))[0] == 3


class TestSweepCommand:
    def test_phase_damping_endpoints(self, tmp_path):
        spec = tmp_path / "s.spec"
        spec.write_text("quantity = avg_f_pd\naxis = q, 0, 1, 101\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,avg_f_pd"
        assert lines[1] == "0,1"
        assert lines[-2].startswith("1,0.666666666667")
        assert lines[-1] == "# warnings: 0"

    def test_amplitude_damping_line(self, tmp_path):
        spec = tmp_path / "s.spec"
        spec.write_text("quantity = avg_f_ad\naxis = p, 0, 1, 11\n")
        out = tmp_path / "out.csv"
        main(["sweep", "--spec", str(spec), "--out", str(out)])
        for line in out.read_text().splitlines()[1:-1]:
            p, value = (float(x) for x in line.split(","))
            assert value == pytest.approx(1 - p / 2, abs=1e-12)

    def test_optimal_reversal_surface_decays(self, tmp_path):
        spec = tmp_path / "s.spec"
        spec.write_text(
            "quantity = sp2\naxis = s, 0, 0.99, 5\naxis2 = p, 0.5, 0.9, 2\nk = 0.5\nr = r_opt\n"
        )
        out = tmp_path / "out.csv"
        main(["sweep", "--spec", str(spec), "--out", str(out)])
        rows = [
            [float(x) for x in line.split(",")]
            for line in out.read_text().splitlines()[1:-1]
        ]
        by_p = {}
        for s, p, v in rows:
            by_p.setdefault(p, []).append(v)
        for series in by_p.values():
            assert all(a >= b for a, b in zip(series, series[1:]))
            assert series[-1] < 0.05

    def test_bit_identical_reruns(self, tmp_path):
        spec = tmp_path / "s.spec"
        spec.write_text(
            "quantity = avg_f_opt0, avg_f_ad\naxis = p, 0.1, 0.9, 4\naxis2 = s, 0, 0.6, 3\n"
        )
        outs = []
        for i in range(3):
            out = tmp_path / f"out{i}.csv"
            assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        spec = tmp_path / "s.spec"
        spec.write_text("quantity = avg_f_pd\naxis = q, 0, 1, 3\n")
        for out in (tmp_path / "missing" / "out.csv", tmp_path):
            before = sorted(tmp_path.rglob("*"))
            assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("error: cannot write output: ")
            assert sorted(tmp_path.rglob("*")) == before

    def test_spec_that_is_not_utf8_is_unreadable(self, tmp_path, capsys):
        spec = tmp_path / "s.spec"
        spec.write_bytes(b"\xff\xfe")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read spec: ")
        assert not out.exists()

    def test_out_of_domain_writes_nan_and_warning(self, tmp_path):
        spec = tmp_path / "s.spec"
        # p = 0 is outside the protected-average domain
        spec.write_text("quantity = avg_f_opt0\naxis = p, 0, 0.9, 4\ns = 0\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "0,nan"
        assert lines[-1] == "# warnings: 1"

    def test_each_point_is_evaluated_once_in_grid_order(self, tmp_path, monkeypatch):
        # p = 0, p = 1 and s = 1 are undefined for both region averages.
        spec = tmp_path / "s.spec"
        spec.write_text(
            "quantity = prob_succ, avg_f_ad, avg_f_opt0\naxis = p, 0, 1, 5\naxis2 = s, 0, 1, 5\n"
        )
        evaluated = []
        real_point = sweeps._evaluate_point

        def point(spec, bindings):
            evaluated.append((bindings["p"], bindings["s"]))
            return real_point(spec, bindings)

        monkeypatch.setattr(sweeps, "_evaluate_point", point)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        text = out.read_text()
        # 13 undefined points, two region averages each.
        assert text.count("nan") == 26 and text.endswith("# warnings: 26\n")
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        assert evaluated == [(p, s) for p in grid for s in grid]

    def test_fixed_point_grid_values_in_range(self, tmp_path):
        spec = tmp_path / "s.spec"
        spec.write_text("quantity = sim_fidelity\naxis = k, 0, 1, 5\nchannel = adc\nstrength = 0.5\n")
        out = tmp_path / "out.csv"
        main(["sweep", "--spec", str(spec), "--out", str(out)])
        for line in out.read_text().splitlines()[1:-1]:
            value = float(line.split(",")[1])
            assert 0.0 <= value <= 1.0

    def test_spec_validation_exit_code(self, tmp_path):
        spec = tmp_path / "s.spec"
        spec.write_text("quantity = no_such_thing\naxis = q, 0, 1, 5\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 3
        spec.write_text("quantity = sp2\naxis = s, 0, 1, 5\n")  # missing k, r, p
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 3

    def test_oversized_grid_is_refused_before_it_is_built(self, tmp_path, monkeypatch):
        from qss_sim import sweeps

        def build(*args, **kwargs):
            raise AssertionError("the grid was built")

        # Were the check missing, the stub would stop the sweep, not numpy.
        monkeypatch.setattr(sweeps, "np", SimpleNamespace(linspace=build))
        spec, out = tmp_path / "s.spec", tmp_path / "out.csv"
        spec.write_text("quantity = avg_f_pd\naxis = q, 0, 1, 1000000000\n")
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 3
        assert not out.exists()
        two_axes = "quantity = f_pd\naxis = k, 0, 1, {}\naxis2 = q, 0, 1, 1000\n"
        with pytest.raises(ConfigValidationError, match="1001000 points"):
            sweeps._validate_spec(sweep_spec_from_text(two_axes.format(1001)))
        sweeps._validate_spec(sweep_spec_from_text(two_axes.format(1000)))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("channel = xyz\n", "channel must be pdc, adc or none, got 'xyz'"),
            ("channel = adc\n", "with a channel needs strength"),
            ("s = 0.3\n", "needs s and r together or neither"),
            ("axis2 = r, 0, 1, 3\n", "needs s and r together or neither"),
        ],
    )
    def test_sim_fidelity_spec_is_refused_before_the_grid_is_built(
        self, tmp_path, monkeypatch, capsys, text, message
    ):
        from qss_sim import sweeps

        def build(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(sweeps, "np", SimpleNamespace(linspace=build))
        spec, out = tmp_path / "s.spec", tmp_path / "out.csv"
        spec.write_text("quantity = sim_fidelity\naxis = k, 0, 1, 5\n" + text)
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 3
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "quantity = f_pd\naxis = k, 0, 1, 3\nq = 0.5\nchannel = xyz\ns = 0.3\n",
                "fixed parameter(s) ['channel', 's'] not read by f_pd",
            ),
            (
                "quantity = f_pd\naxis = k, 0, 1, 3\nq = 0.5\nr = r_opt\n",
                "fixed parameter(s) ['r'] not read by f_pd",
            ),
            (
                "quantity = sim_fidelity\naxis = k, 0, 1, 3\nchannel = none\nstrength = 0.3\n",
                "fixed parameter(s) ['strength'] not read by sim_fidelity",
            ),
            (
                "quantity = f_pd\naxis = p, 0, 1, 3\nk = 0.5\nq = 0.2\n",
                "axis parameter(s) ['p'] not read by f_pd",
            ),
            (
                "quantity = sim_fidelity\naxis = strength, 0, 1, 3\nk = 0.5\n",
                "axis parameter(s) ['strength'] not read by sim_fidelity",
            ),
        ],
    )
    def test_unread_binding_or_axis_is_refused(self, tmp_path, monkeypatch, capsys, text, message):
        from qss_sim import sweeps

        def build(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(sweeps, "np", SimpleNamespace(linspace=build))
        spec, out = tmp_path / "s.spec", tmp_path / "out.csv"
        spec.write_text(text)
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 3
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("quantity = f_pd\naxis2 = k, 0, 1, 3\nq = 0.2\n", "invalid spec: axis2 given without axis"),
            ("quantity = f_pd, f_pd\naxis = k, 0, 1, 3\nq = 0.2\n", "invalid spec: duplicate quantity 'f_pd'"),
        ],
    )
    def test_lone_axis2_or_repeated_quantity_is_refused(self, tmp_path, capsys, text, message):
        spec, out = tmp_path / "s.spec", tmp_path / "out.csv"
        spec.write_text(text)
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_closed_forms_are_looked_up_when_a_point_is_evaluated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(analysis, "avg_f_pd", lambda q: 2.0 + q)
        spec = Path(__file__).parent.parent / "sweepspecs" / "fig1.spec"
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,avg_f_pd" and lines[-1] == "# warnings: 0"
        assert len(lines) == 103
        for line in lines[1:-1]:
            q, value = (float(x) for x in line.split(","))
            assert value == pytest.approx(2.0 + q, abs=1e-11)

    def test_bindings_read_through_r_opt_and_the_channel_are_accepted(self):
        from qss_sim import sweeps

        for text in (
            "quantity = sim_fidelity\naxis = k, 0, 1, 3\ns = 0.2\nr = r_opt\np = 0.4\n",
            "quantity = sim_fidelity, f_ad\naxis = k, 0, 1, 3\nchannel = adc\nstrength = 0.4\np = 0.4\n",
            "quantity = f0_ww\naxis = k, 0, 1, 3\ns = 0.2\nr = r_opt\np = 0.4\n",
        ):
            sweeps._validate_spec(sweep_spec_from_text(text))

    def test_workers_flag_is_a_parse_error(self, tmp_path, capsys):
        spec, out = tmp_path / "s.spec", tmp_path / "out.csv"
        spec.write_text("quantity = avg_f_pd\naxis = q, 0, 1, 5\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--spec", str(spec), "--out", str(out), "--workers", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 1" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _sweep_values(tmp_path, text):
        spec, out = tmp_path / "s.spec", tmp_path / "out.csv"
        spec.write_text(text)
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        return [line.split(",")[1] for line in lines[1:-1]], lines[-1]

    def test_sim_fidelity_nan_where_r_opt_is_undefined(self, tmp_path):
        # k = 0 and k = 1 lie outside the optimality region of (s, p)
        values, footer = self._sweep_values(
            tmp_path,
            "quantity = sim_fidelity\naxis = k, 0, 1, 5\nchannel = adc\nstrength = 0.5\n"
            "s = 0.3\nr = r_opt\np = 0.5\n",
        )
        assert values[0] == values[-1] == "nan"
        assert "nan" not in values[1:-1]
        assert footer == "# warnings: 2"

    def test_sim_fidelity_nan_where_no_branch_survives(self, tmp_path):
        values, footer = self._sweep_values(
            tmp_path,
            "quantity = sim_fidelity\naxis = k, 0, 1, 3\nchannel = adc\nstrength = 1\ns = 1\nr = 1\n",
        )
        assert values == ["nan"] * 3
        assert footer == "# warnings: 3"

    def test_plain_errors_are_not_written_as_nan(self, monkeypatch):
        from qss_sim import sweeps

        def broken(bindings):
            return 1.0 / (bindings["q"] - bindings["q"])

        monkeypatch.setitem(sweeps.QUANTITIES, "f_pd", (("k", "q"), broken))
        spec = sweep_spec_from_text("quantity = f_pd\naxis = k, 0, 1, 3\nq = 0.5\n")
        with pytest.raises(ZeroDivisionError):
            run_sweep(spec)

    def test_float_formatting(self):
        assert format_float(float("nan")) == "nan"
        assert format_float(float("inf")) == "inf"
        assert format_float(2 / 3) == "0.666666666667"
        assert format_float(1.0) == "1"


class TestFigurePresets:
    def test_preset_specs_parse_and_validate(self):
        root = os.path.join(os.path.dirname(__file__), "..", "sweepspecs")
        for name in sorted(os.listdir(root)):
            spec = sweep_spec_from_text(open(os.path.join(root, name)).read())
            from qss_sim.sweeps import _validate_spec

            _validate_spec(spec)

    @pytest.mark.parametrize("fig", ["fig1", "fig2", "fig3", "fig4", "fig5"])
    def test_figure_csv_bytes_match_reference(self, fig, tmp_path):
        repo = Path(__file__).parent.parent
        out = tmp_path / f"{fig}.csv"
        spec = repo / "sweepspecs" / f"{fig}.spec"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        assert out.read_bytes() == (repo / "benchmarks" / "reference" / f"{fig}.csv").read_bytes()

    def test_fig5_schema(self):
        root = os.path.join(os.path.dirname(__file__), "..", "sweepspecs")
        spec = sweep_spec_from_text(open(os.path.join(root, "fig5.spec")).read())
        header, rows, warnings = run_sweep(spec)
        assert header == ["p", "r", "avg_f1", "avg_f_ad", "optimal_line"]
        assert warnings == 0
        assert len(rows) == 34 * 21


class TestValidationMachinery:
    def test_negative_control_names_the_culprit(self, monkeypatch):
        from qss_sim import validate as v

        def perturbed_f_pd(k, q):
            return analysis.f_pd(k, q) + 0.01

        monkeypatch.setattr(v, "f_pd", perturbed_f_pd)
        results = v.run_all(grid="coarse")
        failing = {r.name for r in results if not r.passed and not r.informational}
        assert "f_pd vs simulator (all branches)" in failing
        # untouched formulas keep passing
        assert "f_ad vs simulator (outcome-0 branches)" not in failing

    def test_validate_tolerances_fixed_regardless_of_override(self):
        from qss_sim import validate as v

        result = v._suite_branch_formula(
            "f_pd vs simulator (all branches)",
            "pdc",
            analysis.f_pd,
            [(0, "+")],
            3,
            1e-12,
        )
        assert result.tolerance == 1e-12
        assert result.passed

    def test_each_configuration_simulated_once_per_run(self, monkeypatch):
        from qss_sim import validate as v

        configs, calls = [], []
        real = v.run_iterations

        def counting(cfgs, secrets):
            pairs = [(secret, cfg.channel, cfg.wmrqm) for cfg, secret in zip(cfgs, secrets)]
            calls.append(pairs)
            configs.extend(pairs)
            return real(cfgs, secrets)

        monkeypatch.setattr(v, "run_iterations", counting)
        for _ in range(2):  # nothing is reused from the first run
            configs.clear()
            calls.clear()
            v.run_all(grid="coarse")
            # 36 pdc + 36 adc + 81 adc with protection + 121 sp1 + 3 * 9 * 21 quadrature nodes
            assert len(configs) == len(set(configs)) == 841
            # each suite's whole grid, in calls of at most 128 3-qubit registers:
            # 6 * 6, 6 * 6, 27 * 3, 11 * 11, then 27 * 21 = 567 in five
            assert [len(pairs) for pairs in calls] == [36, 36, 81, 121, 128, 128, 128, 128, 55]
            # and each call's configs share one register layout
            assert [len({(ch.kind if ch else None, w is None) for _, ch, w in pairs}) for pairs in calls] == [1] * 9

    def test_every_override_reaches_its_suite(self, monkeypatch):
        from qss_sim import validate as v

        shifts = {
            "f_pd": 0.011, "f_ad": 0.013, "f_ad_outcome1": 0.017, "f0_ww": 0.019,
            "f1_ww": 0.023, "sp1": 0.029, "sp2": 0.031, "avg_f_pd": 0.037,
            "avg_f_ad": 0.041, "avg_f1": 0.043, "r_opt": 0.047,
        }

        def shifted(name):
            fn, shift = getattr(analysis, name), shifts[name]
            return lambda *args: fn(*args) + shift

        expected = {
            "f_pd vs simulator (all branches)": shifts["f_pd"],
            "f_ad vs simulator (outcome-0 branches)": shifts["f_ad"],
            "f_ad_outcome1 vs simulator (outcome-1 branches)": shifts["f_ad_outcome1"],
            "f0_ww vs simulator": shifts["f0_ww"],
            "f1_ww vs simulator": shifts["f1_ww"],
            "sp1 vs simulated trace": shifts["sp1"],
            "sp2 vs simulated trace": shifts["sp2"],
            "avg_f_pd vs quadrature": shifts["avg_f_pd"] - shifts["f_pd"],
            "avg_f_ad vs quadrature": shifts["avg_f_ad"] - shifts["f_ad"],
            "avg_f1 vs quadrature": shifts["avg_f1"] - shifts["f1_ww"],
            "r_opt vs numeric argmax": shifts["r_opt"],
        }
        plain = {r.name: r for r in v.run_all(grid="coarse")}
        for name in shifts:
            monkeypatch.setattr(v, name, shifted(name))
        perturbed = v.run_all(grid="coarse")
        for result in perturbed:
            if result.name in expected:
                tol = 1e-6 if result.name.startswith("r_opt") else 1e-12
                assert result.max_residual == pytest.approx(expected[result.name], abs=tol)
                assert not result.passed
            else:  # the closed-form report and the phase-damping check read no override
                assert result == plain[result.name]
        assert len(perturbed) == len(expected) + 2


class TestValidateCommand:
    @pytest.mark.parametrize("grid", ["coarse", "fine"])
    def test_report_bytes_match_golden(self, grid, capsys):
        # Each residual is printed to four digits, so a change in the
        # simulator's or a closed form's rounding can show up here.
        assert main(["validate", "--grid", grid]) == 0
        golden = Path(__file__).parent / "data" / f"validate_{grid}.stdout"
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    def test_all_suites_pass(self, capsys):
        assert main(["validate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line for line in lines[2:] if not line.startswith("    ")]
        assert len(rows) == 13
        assert all(row.endswith(("pass", "noted")) for row in rows)

    def test_failing_suite_names_its_worst_point(self, monkeypatch, capsys):
        from qss_sim import validate as v

        f_ad = analysis.f_ad
        monkeypatch.setattr(v, "f_ad", lambda k, q: f_ad(k, q) + 0.01)
        assert main(["validate"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("f_ad vs simulator"))
        assert lines[row].endswith("FAIL")
        assert re.fullmatch(
            r"    worst point: k=[0-9.e-]+, strength=[0-9.e-]+, branch=\(0, '[+-]'\)", lines[row + 1]
        )
        # the k-average of the shifted form fails with it
        assert captured.err.strip() == "2 suite(s) failed"
