"""End-to-end CLI behaviour: scenarios, CSV schema, exit codes, reproducibility."""

import math

import numpy as np
import pytest

from mrtkit.cli import main

BASE_SPECTRAL = """\
[spectral]
kind = ohmic
eta = 8.0
omega_c = 0.02
temperature = 1.0
"""

# eta*omega_c/4 = 0.04; omega_c << T so W^2 ~ 2*T*eps_p0 = 0.08


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    comments, header, rows = {}, None, []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                comments[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


class TestMrtScan:
    def config(self, tmp_path, out):
        return write_config(
            tmp_path,
            f"""\
[run]
scenario = mrt-scan
out = {out}

{BASE_SPECTRAL}
[two-state]
delta = 0.001
eps = 0.0
temperature = 1.0

[mrt-scan]
shape = gaussian
eps_p = auto

[bias-grid]
start = -1.0
stop = 1.0
steps = 21
""",
        )

    def test_schema_and_exit(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["mrt-scan", "--config", self.config(tmp_path, out)]) == 0
        comments, header, rows = read_csv(out)
        assert header == ["eps", "gamma_minus", "gamma_plus"]
        assert len(rows) == 21
        assert comments["scenario"] == "mrt-scan"
        assert comments["spectral.kind"] == "ohmic"

    def test_round_trip_reproduces_numeric_output(self, tmp_path):
        out = tmp_path / "scan.csv"
        main(["mrt-scan", "--config", self.config(tmp_path, out)])
        comments, header, rows = read_csv(out)

        # rebuild the config purely from the CSV comment header
        sections = {}
        for key, value in comments.items():
            if "." not in key:
                continue
            section, _, option = key.partition(".")
            sections.setdefault(section, {})[option] = value
        sections.setdefault("run", {})["scenario"] = comments["scenario"]
        sections["run"]["seed"] = comments["seed"]
        sections["run"]["units"] = comments["units"]
        rebuilt = "\n".join(
            f"[{name}]\n" + "\n".join(f"{k} = {v}" for k, v in body.items())
            for name, body in sections.items()
        )
        out2 = tmp_path / "again.csv"
        path2 = write_config(tmp_path, rebuilt, name="rebuilt.ini")
        assert main(["mrt-scan", "--config", path2, "--out", str(out2)]) == 0
        _, header2, rows2 = read_csv(out2)
        assert header2 == header
        assert rows2 == rows

    def test_detailed_balance_of_output(self, tmp_path):
        from mrtkit import OhmicCutoff, noise_rms

        out = tmp_path / "scan.csv"
        main(["mrt-scan", "--config", self.config(tmp_path, out)])
        _, _, rows = read_csv(out)
        eps_p0 = 0.04
        w2 = noise_rms(OhmicCutoff(8.0, 0.02, 1.0)) ** 2
        for eps_s, gm_s, gp_s in rows:
            eps, gm, gp = float(eps_s), float(gm_s), float(gp_s)
            # ln(G-/G+) = 2 eps eps_p / W^2 exactly, with W from the model
            assert math.log(gm / gp) == pytest.approx(
                2.0 * eps * eps_p0 / w2, abs=1e-10
            )
        values = np.array([[float(c) for c in row] for row in rows])
        # symmetric grid: gamma_minus(eps) = gamma_plus(-eps)
        assert np.allclose(values[:, 1], values[::-1, 2], rtol=1e-12)


class TestScanShapes:
    def scan_config(self, tmp_path, out, shape_block):
        return write_config(
            tmp_path,
            f"""\
[run]
scenario = mrt-scan
out = {out}

{BASE_SPECTRAL}
[two-state]
delta = 0.001
eps = 0.0
temperature = 1.0

[mrt-scan]
{shape_block}

[bias-grid]
start = -0.5
stop = 0.5
steps = 7
""",
        )

    def test_classical_shape_is_symmetric(self, tmp_path):
        out = tmp_path / "c.csv"
        config = self.scan_config(tmp_path, out, "shape = classical")
        assert main(["mrt-scan", "--config", config]) == 0
        _, _, rows = read_csv(out)
        for _, gm, gp in rows:
            assert gm == gp

    def test_voigt_shape(self, tmp_path):
        out = tmp_path / "v.csv"
        config = self.scan_config(
            tmp_path, out, "shape = voigt\neps_p = auto\ngamma = 0.1"
        )
        assert main(["mrt-scan", "--config", config]) == 0
        _, _, rows = read_csv(out)
        values = np.array([[float(c) for c in row] for row in rows])
        assert np.all(values[:, 1:] > 0.0)

    def test_nonlocal_corrected_shape(self, tmp_path):
        out = tmp_path / "n.csv"
        config = self.scan_config(tmp_path, out, "shape = nonlocal-corrected")
        assert main(["mrt-scan", "--config", config]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 7

    def test_unknown_shape_is_config_error(self, tmp_path):
        out = tmp_path / "u.csv"
        config = self.scan_config(tmp_path, out, "shape = triangle")
        assert main(["mrt-scan", "--config", config]) == 2

    def test_tabulated_spectrum_from_csv(self, tmp_path):
        import mrtkit

        source = mrtkit.OhmicCutoff(8.0, 0.02, 1.0)
        grid = np.linspace(-0.6, 0.6, 1201)
        rows = ["omega,S"] + [
            f"{float(w)!r},{mrtkit.eval_spectral_density(source, float(w))!r}"
            for w in grid
        ]
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("\n".join(rows) + "\n")
        out = tmp_path / "t.csv"
        config = write_config(
            tmp_path,
            f"""\
[run]
scenario = mrt-scan
out = {out}

[spectral]
kind = tabulated
csv = {spectrum}
temperature = 1.0

[two-state]
delta = 0.001
eps = 0.0
temperature = 1.0

[mrt-scan]
shape = gaussian

[bias-grid]
start = -0.2
stop = 0.2
steps = 5
""",
        )
        assert main(["mrt-scan", "--config", config]) == 0
        _, _, data = read_csv(out)
        assert len(data) == 5


class TestPeakCommand:
    def test_single_row_output(self, tmp_path):
        out = tmp_path / "peak.csv"
        config = write_config(
            tmp_path,
            f"""\
[run]
scenario = peak
out = {out}

[spectral]
kind = ohmic
eta = 200.0
omega_c = 0.01
temperature = 1.0

[two-state]
delta = 0.03
eps = 0.5
temperature = 1.0
""",
        )
        assert main(["peak", "--config", config]) == 0
        _, header, rows = read_csv(out)
        assert header == ["gamma_peak", "eps_peak", "asymmetry"]
        assert len(rows) == 1
        # peak sits near eps_p0 = 0.5 with a tiny memory enhancement
        assert float(rows[0][1]) == pytest.approx(0.5, abs=0.05)


class TestEvolveShortTime:
    def test_short_time_mode(self, tmp_path):
        out = tmp_path / "st.csv"
        config = write_config(
            tmp_path,
            f"""\
[run]
scenario = evolve
out = {out}

[spectral]
kind = ohmic
eta = 200.0
omega_c = 0.01
temperature = 1.0

[two-state]
delta = 0.001
eps = 0.5
temperature = 1.0

[evolve]
mode = short-time

[time-grid]
start = 0.0
stop = 10.0
steps = 5
""",
        )
        assert main(["evolve", "--config", config]) == 0
        _, header, rows = read_csv(out)
        assert header == ["t", "rho00", "rho11"]
        rho11 = [float(r[2]) for r in rows]
        assert rho11[0] == 0.0
        assert all(b >= a for a, b in zip(rho11, rho11[1:]))


class TestWarningLine:
    def test_weak_coupling_warning_in_csv(self, tmp_path):
        out = tmp_path / "warn.csv"
        config = write_config(
            tmp_path,
            f"""\
[run]
scenario = mrt-scan
out = {out}

{BASE_SPECTRAL}
[two-state]
delta = 0.5
eps = 0.0
temperature = 1.0

[bias-grid]
start = -1.0
stop = 1.0
steps = 5
""",
        )
        assert main(["mrt-scan", "--config", config]) == 0
        text = out.read_text()
        assert "# warning: W/Delta < 10, perturbative regime violated\n" in text


class TestEvolve:
    def test_local_constant_rates_reach_equilibrium(self, tmp_path):
        out = tmp_path / "evolve.csv"
        config = write_config(
            tmp_path,
            f"""\
[run]
scenario = evolve
out = {out}

{BASE_SPECTRAL}
[two-state]
delta = 0.001
eps = 0.1
temperature = 1.0

[evolve]
mode = local
rho11_0 = 0.0

[time-grid]
start = 0.0
stop = 4000000.0
steps = 201
""",
        )
        assert main(["evolve", "--config", config]) == 0
        _, header, rows = read_csv(out)
        assert header == ["t", "rho00", "rho11"]
        final = float(rows[-1][2])
        # equilibrium ratio G-/G+ = exp(2 eps eps_p0 / W^2); W^2 from the model
        from mrtkit import OhmicCutoff, noise_rms

        w2 = noise_rms(OhmicCutoff(8.0, 0.02, 1.0)) ** 2
        ratio = math.exp(2.0 * 0.1 * 0.04 / w2)
        assert final == pytest.approx(ratio / (1.0 + ratio), abs=1e-6)

    def test_nonlocal_grid_guard_exit_code(self, tmp_path):
        out = tmp_path / "evolve.csv"
        config = write_config(
            tmp_path,
            f"""\
[run]
scenario = evolve
out = {out}

{BASE_SPECTRAL}
[two-state]
delta = 0.001
eps = 0.0
temperature = 1.0

[evolve]
mode = nonlocal

[time-grid]
start = 0.0
stop = 1000000.0
steps = 11
""",
        )
        assert main(["evolve", "--config", config]) == 3


class TestEnvelope:
    def test_white_noise_envelope(self, tmp_path):
        out = tmp_path / "env.csv"
        config = write_config(
            tmp_path,
            f"""\
[run]
scenario = envelope
out = {out}

[spectral]
kind = white
s0 = 2.0

[two-state]
eps = 1.5

[time-grid]
start = 0.0
stop = 3.0
steps = 4
""",
        )
        assert main(["envelope", "--config", config]) == 0
        _, header, rows = read_csv(out)
        assert header == ["t", "magnitude_ratio", "phase"]
        for t_s, mag_s, phase_s in rows:
            t = float(t_s)
            assert float(mag_s) == pytest.approx(math.exp(-t), rel=1e-12)
            assert float(phase_s) == pytest.approx(-1.5 * t, rel=1e-12)


class TestExitCodes:
    def test_missing_key_is_config_error(self, tmp_path):
        config = write_config(
            tmp_path,
            """\
[run]
scenario = mrt-scan
out = x.csv

[spectral]
kind = ohmic
eta = 1.0
""",
        )
        assert main(["mrt-scan", "--config", config]) == 2

    def test_malformed_ini_is_config_error(self, tmp_path):
        config = write_config(tmp_path, "not an ini file at all\n")
        assert main(["mrt-scan", "--config", config]) == 2

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["mrt-scan", "--config", str(tmp_path / "absent.ini")]) == 2

    def test_scenario_mismatch_is_config_error(self, tmp_path):
        config = write_config(
            tmp_path,
            """\
[run]
scenario = envelope
out = x.csv
""",
        )
        assert main(["mrt-scan", "--config", config]) == 2

    @pytest.mark.parametrize(
        "scenario, section, body",
        [
            ("mrt-scan", "run", "seed = abc"),
            ("mrt-scan", "mrt-scan", "shape = gaussian\neps_p = abc"),
            ("mrt-scan", "bias-grid", "start = -1.0\nstop = 1.0\nsteps = abc"),
            ("oracle", "oracle", "name = static-noise\nw = 1.0\ndelta = 0.01\n"
                                 "probe_time = 18.0\nsamples = lots\neps = 0.0"),
            ("mrt-scan", "spectral", "kind = tabulated\ncsv = {tmp}/absent.csv"),
        ],
        ids=["seed", "eps_p", "steps", "samples", "missing-csv"],
    )
    def test_bad_value_is_config_error(self, tmp_path, capsys, scenario, section, body):
        out = tmp_path / "x.csv"
        sections = {
            "run": f"scenario = {scenario}\nout = {out}",
            "spectral": "kind = ohmic\neta = 8.0\nomega_c = 0.02\ntemperature = 1.0",
            "two-state": "delta = 0.001\neps = 0.0\ntemperature = 1.0",
            "bias-grid": "start = -1.0\nstop = 1.0\nsteps = 5",
        }
        body = body.format(tmp=tmp_path)
        sections[section] = sections[section] + "\n" + body if section == "run" else body
        text = "".join(f"[{name}]\n{lines}\n\n" for name, lines in sections.items())
        config = write_config(tmp_path, text)
        assert main([scenario, "--config", config]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows",
        ["-1.0,1.0\n0.0,abc\n1.0,1.0\n2.0,1.0",
         "-1.0,1.0\n0.0,1.0\n0.0,2.0\n1.0,1.0",
         "-1.0,1.0\n0.0\n1.0,1.0\n2.0,1.0",
         "-1.0,1.0\n0.0,nan\n1.0,1.0\n2.0,1.0"],
        ids=["non-numeric", "repeated-omega", "missing-column", "nan-value"],
    )
    def test_malformed_tabulated_csv_is_config_error(self, tmp_path, capsys, rows):
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("omega,S\n" + rows + "\n")
        out = tmp_path / "x.csv"
        config = write_config(
            tmp_path,
            f"""\
[run]
scenario = mrt-scan
out = {out}

[spectral]
kind = tabulated
csv = {spectrum}

[two-state]
delta = 0.001
eps = 0.0
temperature = 1.0

[bias-grid]
start = -1.0
stop = 1.0
steps = 5
""",
        )
        assert main(["mrt-scan", "--config", config]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_divergent_model_is_physics_error(self, tmp_path):
        out = tmp_path / "x.csv"
        config = write_config(
            tmp_path,
            f"""\
[run]
scenario = mrt-scan
out = {out}

[spectral]
kind = white
s0 = 1.0

[two-state]
delta = 0.001
eps = 0.0
temperature = 1.0

[bias-grid]
start = -1.0
stop = 1.0
steps = 5
""",
        )
        assert main(["mrt-scan", "--config", config]) == 3


class TestMultichannel:
    def test_channel_sum_output(self, tmp_path):
        out = tmp_path / "mc.csv"
        config = write_config(
            tmp_path,
            f"""\
[run]
scenario = multichannel
out = {out}

{BASE_SPECTRAL}
[two-state]
temperature = 0.8

[levels]
level_0 = 0.0 0.001 0.0
level_1 = 1.0 0.05 0.0

[multichannel]
eps_p = auto

[bias-grid]
start = -0.5
stop = 0.5
steps = 5
""",
        )
        assert main(["multichannel", "--config", config]) == 0
        _, header, rows = read_csv(out)
        assert header == ["eps", "gamma_minus", "gamma_plus"]
        values = np.array([[float(c) for c in row] for row in rows])
        assert np.all(values[:, 1:] > 0.0)
        assert np.allclose(values[:, 1], values[::-1, 2], rtol=1e-12)


class TestOracleScenario:
    def test_convolution_oracle_passes(self, tmp_path):
        out = tmp_path / "orc.csv"
        config = write_config(
            tmp_path,
            f"""\
[run]
scenario = oracle
out = {out}

[oracle]
name = convolution
w = 1.0
delta = 0.01
gamma = 1.0
eps_p = 0.3

[bias-grid]
start = -2.0
stop = 3.0
steps = 9
""",
        )
        assert main(["oracle", "--config", config]) == 0
        _, header, rows = read_csv(out)
        assert header[:3] == ["eps", "faddeeva_rate", "convolution_rate"]
        assert all(row[-1] == "1.0" for row in rows)

    def test_static_noise_oracle_with_tolerance(self, tmp_path):
        out = tmp_path / "orc.csv"
        config = write_config(
            tmp_path,
            f"""\
[run]
scenario = oracle
out = {out}
seed = 3

[oracle]
name = static-noise
w = 1.0
delta = 0.01
probe_time = 18.0
samples = 40000
eps = 0.0 1.0
tolerance_rel = 0.08
""",
        )
        assert main(["oracle", "--config", config]) == 0

    def test_seed_reproducibility(self, tmp_path):
        config_text = f"""\
[run]
scenario = oracle
out = {tmp_path / 'a.csv'}
seed = 3

[oracle]
name = static-noise
w = 1.0
delta = 0.01
probe_time = 18.0
samples = 20000
eps = 0.5
tolerance_rel = 0.5
"""
        config = write_config(tmp_path, config_text)
        main(["oracle", "--config", config])
        main(["oracle", "--config", config, "--out", str(tmp_path / "b.csv")])
        a = (tmp_path / "a.csv").read_text().splitlines()
        b = (tmp_path / "b.csv").read_text().splitlines()
        # identical except the recorded output path
        assert [l for l in a if "out" not in l] == [l for l in b if "out" not in l]


class TestValidateCommand:
    def test_reports_and_csv(self, tmp_path, capsys):
        out = tmp_path / "validation.csv"
        # criterion 4 is expected red (estimator finite-time systematic)
        assert main(["validate", "--out", str(out)]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        assert sum("[PASS]" in line for line in lines) == 9
        assert sum("[FAIL]" in line for line in lines) == 1
        assert "[FAIL]" in next(l for l in lines if "criterion 04" in l)
        text = out.read_text()
        assert text.startswith("# artifact = mrtkit")
        assert "criterion,name,metric,value,cmp,bound,status" in text

    def test_unwritable_out_fails_before_the_suite(self, tmp_path, capsys):
        out = tmp_path / "absent" / "validation.csv"
        assert main(["validate", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert "criterion" not in captured.out
        assert not out.exists()

    def test_csv_byte_identical_across_runs(self, tmp_path):
        first = tmp_path / "v1.csv"
        second = tmp_path / "v2.csv"
        main(["validate", "--out", str(first)])
        main(["validate", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()
