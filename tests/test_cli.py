"""End-to-end CLI behaviour: scenarios, CSV schema, exit codes, reproducibility."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mrtkit
from mrtkit import LinearSchedule, OhmicCutoff, White, dephasing_exponent
from mrtkit.cli import _RUNNERS, main
from mrtkit.quadrature import _BLOCK, _tabulated_nodes

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
        from mrtkit import OhmicCutoff

        out = tmp_path / "scan.csv"
        main(["mrt-scan", "--config", self.config(tmp_path, out)])
        _, _, rows = read_csv(out)
        eps_p0 = 0.04
        w2 = OhmicCutoff(8.0, 0.02, 1.0).noise_rms() ** 2
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
    def scan_config(self, tmp_path, out, shape_block, ramp=""):
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
{ramp}

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

    def test_low_temperature_overflow_is_precondition(self, tmp_path, capsys):
        # cosh(eps/2T) overflows at T = 0.001, eps = 4: exit 3, not a traceback
        out = tmp_path / "n.csv"
        config = write_config(
            tmp_path,
            f"""\
[run]
scenario = mrt-scan
out = {out}

[spectral]
kind = ohmic
eta = 10.0
omega_c = 1.0
temperature = 0.001

[two-state]
delta = 0.05
eps = 0.0
temperature = 0.001

[mrt-scan]
shape = nonlocal-corrected

[bias-grid]
start = -4.0
stop = 4.0
steps = 9
""",
        )
        assert main(["mrt-scan", "--config", config]) == 3
        assert "eps/2T" in capsys.readouterr().err

    def test_unknown_shape_is_config_error(self, tmp_path):
        out = tmp_path / "u.csv"
        config = self.scan_config(tmp_path, out, "shape = triangle")
        assert main(["mrt-scan", "--config", config]) == 2

    @pytest.mark.parametrize(
        "shape_block",
        ["shape = gaussian", "shape = classical", "shape = voigt\ngamma = 0.1"],
        ids=["gaussian", "classical", "voigt"],
    )
    def test_ramp_is_precondition(self, tmp_path, capsys, shape_block):
        # a scan reads the line at t = 0: a ramp is refused, not dropped
        out = tmp_path / "r.csv"
        config = self.scan_config(tmp_path, out, shape_block,
                                  ramp="delta_rate = 5.0\neps_rate = 3.0")
        assert main(["mrt-scan", "--config", config]) == 3
        assert "time-invariant Hamiltonian required" in capsys.readouterr().err
        assert not out.exists()

    def test_tabulated_spectrum_from_csv(self, tmp_path):
        import mrtkit

        source = mrtkit.OhmicCutoff(8.0, 0.02, 1.0)
        grid = np.linspace(-0.6, 0.6, 1201)
        rows = ["omega,S"] + [
            f"{float(w)!r},{source.density(float(w))!r}"
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


    def test_tabulated_nonlocal_corrected_scan_moments_once(self, tmp_path, monkeypatch):
        # eps_p0 and the response frequency depend on the model alone: one
        # evaluation per scan, not one per bias point
        import mrtkit

        counts = {"reorganization_shift": 0, "tau_r": 0}
        for name in counts:
            original = getattr(mrtkit.Tabulated, name)

            def counted(model, original=original, name=name):
                counts[name] += 1
                return original(model)

            monkeypatch.setattr(mrtkit.Tabulated, name, counted)
        source = mrtkit.OhmicCutoff(8.0, 0.02, 1.0)
        grid = np.linspace(-0.6, 0.6, 241)
        rows = ["omega,S"] + [
            f"{float(w)!r},{source.density(float(w))!r}" for w in grid
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
delta = 0.003
eps = 0.0
temperature = 1.0

[mrt-scan]
shape = nonlocal-corrected

[bias-grid]
start = -0.5
stop = 0.5
steps = 11
""",
        )
        assert main(["mrt-scan", "--config", config]) == 0
        assert counts == {"reorganization_shift": 1, "tau_r": 1}
        _, _, data = read_csv(out)
        assert len(data) == 11
        # each row equals the scan at that one bias
        model = mrtkit.Tabulated.from_csv(spectrum)
        w_rms = model.noise_rms()
        params = mrtkit.TwoStateParams(0.003, 0.0, 1.0)
        for eps, gm, gp in data:
            minus, plus = mrtkit.nonlocal_corrected_scan(model, params, w_rms, [float(eps)])
            assert (float(gm), float(gp)) == (minus[0], plus[0])


class TestEvenTabulatedSpectrum:
    """A table even about omega = 0 has eps_p0 = 0 to roundoff, not a divergence."""

    SPECTRUM = "omega,S\n-2.0,0.0\n-1.0,1.0\n0.0,0.0\n1.0,1.0\n2.0,0.0\n"

    def config(self, tmp_path, scenario, body):
        spectrum = tmp_path / "even.csv"
        spectrum.write_text(self.SPECTRUM)
        out = tmp_path / "out.csv"
        text = (f"[run]\nscenario = {scenario}\nout = {out}\n\n"
                f"[spectral]\nkind = tabulated\ncsv = {spectrum}\n\n"
                "[two-state]\ndelta = 0.01\neps = 0.0\ntemperature = 1.0\n\n" + body)
        return write_config(tmp_path, text), out

    def test_gaussian_scan_runs_with_a_zero_shift(self, tmp_path):
        config, out = self.config(
            tmp_path, "mrt-scan",
            "[mrt-scan]\nshape = gaussian\neps_p = auto\n\n"
            "[bias-grid]\nstart = -1.0\nstop = 1.0\nsteps = 5\n")
        assert main(["mrt-scan", "--config", config]) == 0
        comments, _, rows = read_csv(out)
        assert abs(float(comments["eps_p"])) < 1e-15
        assert len(rows) == 5

    def test_nonlocal_evolve_is_refused_by_the_response_time(self, tmp_path, capsys):
        # S_a carries no weight, so the table has no response time
        config, out = self.config(
            tmp_path, "evolve",
            "[evolve]\nmode = nonlocal\n\n"
            "[time-grid]\nstart = 0.0\nstop = 10.0\nsteps = 101\n")
        assert main(["evolve", "--config", config]) == 3
        assert "carries no weight" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("temperature, code", [(0.01, 3), (0.0135, 3), (0.02, 0)])
    def test_cosh_overflow_is_precondition(self, tmp_path, capsys, temperature, code):
        # W^2/8T^2 = 1991 and 1093 at T = 0.01 and 0.0135: the cosh factor
        # overflows at its saddle eps = W^2/2T, though at T = 0.0135 the
        # skewness of the curve's four Gaussians would still be finite
        out = tmp_path / "peak.csv"
        config = write_config(
            tmp_path,
            f"""\
[run]
scenario = peak
out = {out}

[spectral]
kind = ohmic
eta = 10.0
omega_c = 1.0
temperature = {temperature}

[two-state]
delta = 0.05
eps = 2.5
temperature = {temperature}
""",
        )
        assert main(["peak", "--config", config]) == code
        overflow = "memory-corrected rate overflows" in capsys.readouterr().err
        assert overflow == (code == 3)
        assert out.exists() == (code == 0)


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

    # W/Delta < 10 on an ohmic bath with omega_c = 5: the memory-kernel
    # scenarios stay in their own regime
    WEAK = """\
[spectral]
kind = ohmic
eta = 2.0
omega_c = 5.0
temperature = 1.0

[two-state]
delta = 0.6
eps = 0.0
temperature = 1.0
"""

    @pytest.mark.parametrize(
        "scenario, body",
        [
            ("mrt-scan", "[mrt-scan]\nshape = gaussian\n\n"
                         "[bias-grid]\nstart = -4.0\nstop = 4.0\nsteps = 9\n"),
            ("mrt-scan", "[mrt-scan]\nshape = nonlocal-corrected\n\n"
                         "[bias-grid]\nstart = -4.0\nstop = 4.0\nsteps = 9\n"),
            ("evolve", "[evolve]\nmode = nonlocal\n\n"
                       "[time-grid]\nstart = 0.0\nstop = 10.0\nsteps = 1001\n"),
        ],
        ids=["scan-gaussian", "scan-nonlocal-corrected", "evolve-nonlocal"],
    )
    def test_each_warning_reported_once(self, tmp_path, capsys, scenario, body):
        out = tmp_path / "warn.csv"
        config = write_config(
            tmp_path, f"[run]\nscenario = {scenario}\nout = {out}\n\n{self.WEAK}\n{body}"
        )
        assert main([scenario, "--config", config]) == 0
        assert out.read_text().count("# warning:") == 1
        assert capsys.readouterr().err.count("warning:") == 1


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
        from mrtkit import OhmicCutoff

        w2 = OhmicCutoff(8.0, 0.02, 1.0).noise_rms() ** 2
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

    @staticmethod
    def delta_ramp_through_zero(tmp_path, out, scenario, section):
        # Delta(t) = 0.02 - 0.001 t changes sign at t = 20; the rates depend
        # on Delta^2 alone, so the sweep is a valid run
        return write_config(
            tmp_path,
            f"""\
[run]
scenario = {scenario}
out = {out}

{BASE_SPECTRAL}
[two-state]
delta = 0.02
delta_rate = -0.001
eps = 0.1
temperature = 1.0

{section}
rho11_0 = 0.0

[time-grid]
start = 0.0
stop = 40.0
steps = 81
""",
        )

    def test_local_delta_ramp_through_zero(self, tmp_path):
        out = tmp_path / "evolve.csv"
        config = self.delta_ramp_through_zero(tmp_path, out, "evolve", "[evolve]\nmode = local")
        assert main(["evolve", "--config", config]) == 0
        rho11 = np.array([float(row[2]) for row in read_csv(out)[2]])
        assert rho11.size == 81
        assert np.all((rho11 >= 0.0) & (rho11 <= 1.0))
        # the population keeps moving after the crossing, where Delta^2 grows again
        assert rho11[-1] > rho11[40] > 0.0

    def test_refined_local_oracle_delta_ramp_through_zero(self, tmp_path):
        out = tmp_path / "oracle.csv"
        config = self.delta_ramp_through_zero(tmp_path, out, "oracle",
                                              "[oracle]\nname = refined-local")
        assert main(["oracle", "--config", config]) == 0
        _, header, rows = read_csv(out)
        assert header == ["sup_diff", "tolerance", "status"]
        assert rows[0][-1] == "1.0"

    def test_refined_local_oracle_on_steps_of_many_relaxation_times(self, tmp_path, capsys):
        # a step of 1e8 spans ~4e4 relaxation times 1/(G_- + G_+): the Duhamel
        # step keeps its inflow, and the RK4 trials that overflow on the way to
        # a stable substep count leave no warning
        out = tmp_path / "oracle.csv"
        config = write_config(tmp_path, f"""\
[run]
scenario = oracle
out = {out}

[spectral]
kind = ohmic
eta = 200.0
omega_c = 0.01
temperature = 1.0

[two-state]
delta = 0.02
eps = 0.5
eps_rate = 1e-13
temperature = 1.0

[oracle]
name = refined-local
rho11_0 = 0.0

[time-grid]
start = 0.0
stop = 1e9
steps = 11
""")
        assert main(["oracle", "--config", config]) == 0
        captured = capsys.readouterr()
        assert "oracle refined-local: PASS" in captured.out
        assert "warning" not in captured.err
        assert "warning" not in out.read_text()


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

    @pytest.mark.parametrize("value, code", [("2.0", 0), ("nan", 2)], ids=["finite", "nan"])
    def test_white_temperature_is_checked_and_echoed(self, tmp_path, value, code):
        # the flat spectrum uses no temperature, but the key stays valid input
        out = tmp_path / "env.csv"
        config = write_config(
            tmp_path,
            f"[run]\nscenario = envelope\nout = {out}\n\n[spectral]\nkind = white\n"
            f"s0 = 0.3\ntemperature = {value}\n\n[time-grid]\nstart = 0.0\nstop = 1.0\n"
            "steps = 3\n",
        )
        assert main(["envelope", "--config", config]) == code
        if code == 0:
            assert read_csv(out)[0]["spectral.temperature"] == value
        else:
            assert not out.exists()

    @pytest.mark.parametrize(
        "spectral, model",
        [("kind = white\ns0 = 0.3", White(s0=0.3)),
         ("kind = ohmic\neta = 8.0\nomega_c = 0.02\ntemperature = 1.0",
          OhmicCutoff(eta=8.0, omega_c=0.02, temperature=1.0))],
        ids=["white", "ohmic"],
    )
    def test_matches_per_t_scalar_rendering(self, tmp_path, spectral, model):
        # the envelope evaluates its grid in one call; for these models the
        # CSV is byte-identical to rendering exp(-X(t)) and -int eps row by row
        out = tmp_path / "env.csv"
        config = write_config(
            tmp_path,
            f"[run]\nscenario = envelope\nout = {out}\n\n[spectral]\n{spectral}\n\n"
            "[two-state]\neps = 0.2\neps_rate = 0.01\n\n"
            "[time-grid]\nstart = 0.0\nstop = 12.0\nsteps = 7\n",
        )
        assert main(["envelope", "--config", config]) == 0
        eps = LinearSchedule(0.2, 0.01)
        expected = "t,magnitude_ratio,phase\n" + "".join(
            f"{t!r},{math.exp(-dephasing_exponent(model, t))!r},{-eps.integral(t)!r}\n"
            for t in np.linspace(0.0, 12.0, 7).tolist()
        )
        assert out.read_text().endswith(expected)

    @pytest.mark.parametrize(
        "run, spectral, key, value",
        [("units = 100%", "", "units", "100%"),
         ("", "note = 5%", "spectral.note", "5%")],
        ids=["units", "header-only"],
    )
    def test_percent_sign_is_literal_text(self, tmp_path, run, spectral, key, value):
        # no interpolation: a % is echoed as written, not read as a reference
        out = tmp_path / "env.csv"
        config = write_config(
            tmp_path,
            f"[run]\nscenario = envelope\nout = {out}\n{run}\n\n[spectral]\nkind = white\n"
            f"s0 = 0.3\n{spectral}\n\n[time-grid]\nstart = 0.0\nstop = 1.0\nsteps = 3\n",
        )
        assert main(["envelope", "--config", config]) == 0
        assert read_csv(out)[0][key] == value

    def test_every_row_is_range_checked(self, tmp_path, monkeypatch):
        out = tmp_path / "env.csv"
        config = write_config(
            tmp_path,
            f"[run]\nscenario = envelope\nout = {out}\n\n[spectral]\nkind = white\n"
            "s0 = 0.3\n\n[time-grid]\nstart = 0.0\nstop = 1.0\nsteps = 3\n",
        )
        # the model's own X(t), below the one range check in dephasing_exponent
        monkeypatch.setattr(
            White, "dephasing_exponent", lambda self, t: np.array([0.0, 0.1, -1.0])
        )
        assert main(["envelope", "--config", config]) == 3
        assert not out.exists()


OHMIC_NONLOCAL = """\
[spectral]
kind = ohmic
eta = 1.0
omega_c = 1.0
temperature = 1.0

[two-state]
delta = 1e-170
eps = 0.0
temperature = 1.0

[time-grid]
start = 0.0
stop = 1.0
steps = 11
"""
CONVOLUTION = """\
[oracle]
name = convolution
w = 1.0
delta = {delta}
gamma = {gamma}

[bias-grid]
start = -1.0
stop = 1.0
steps = 3
"""


class TestBlasThreads:
    """A tabulated run writes the same bytes with one OpenBLAS thread or two.

    241 knots on +-0.6 give 2 032 shared nodes up to t = 40, so
    ``quadrature._sine_contraction`` contracts blocks of 16 x 2 032 = 32 512
    elements, above the 9 216 from which OpenBLAS threads a matrix-vector
    product by default.  (The scipy-openblas build in NumPy's wheels threads
    one only from 460 800 elements, above every block of the package.)
    """

    @pytest.mark.parametrize("scenario, body", [
        ("envelope", ""),
        ("evolve", "[evolve]\nmode = nonlocal\n\n"),
    ], ids=["envelope", "evolve-nonlocal"])
    def test_csv_is_byte_identical_under_one_and_two_threads(self, tmp_path, scenario, body):
        grid = np.linspace(-0.6, 0.6, 241)
        nodes = _tabulated_nodes(grid, 0.6, 40.0)[0].size
        assert min(_BLOCK // nodes, 41) * nodes >= 9216
        source = OhmicCutoff(8.0, 0.02, 1.0)
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("omega,S\n" + "".join(
            f"{float(w)!r},{source.density(float(w))!r}\n" for w in grid))
        out = tmp_path / "out.csv"
        config = write_config(
            tmp_path,
            f"[run]\nscenario = {scenario}\nout = {out}\n\n"
            f"[spectral]\nkind = tabulated\ncsv = {spectrum}\ntemperature = 1.0\n\n"
            "[two-state]\ndelta = 0.003\neps = 0.05\ntemperature = 1.0\n\n" + body +
            "[time-grid]\nstart = 0.0\nstop = 40.0\nsteps = 41\n")
        src = str(Path(mrtkit.__file__).resolve().parents[1])
        written = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "mrtkit.cli", scenario, "--config", config],
                           env=env, timeout=120, check=True)
            written.append(out.read_bytes())
        assert written[0] == written[1]


class TestExtremeValues:
    """Values that underflow or overflow a float end by the exit-code contract."""

    @pytest.mark.parametrize("scenario, body", [
        ("evolve", OHMIC_NONLOCAL + "[evolve]\nmode = nonlocal\n"),
        ("oracle", OHMIC_NONLOCAL + "[oracle]\nname = refined-nonlocal\n"),
    ], ids=["evolve", "refined-nonlocal"])
    def test_peak_rate_underflow_runs(self, tmp_path, capsys, scenario, body):
        # Gamma_p = 0: the step bound is set by omega_c alone
        out = tmp_path / "o.csv"
        config = write_config(tmp_path, f"[run]\nscenario = {scenario}\nout = {out}\n\n{body}")
        assert main([scenario, "--config", config]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, body, code, message", [
        ("oracle", "[oracle]\nname = static-noise\nw = 1.0\ndelta = 0.01\nprobe_time = 10.0\n"
         "samples = 100\neps = 0.0 40.0\n", 3,
         "precondition violated: closed static-noise rate at eps = 40.0 is 0.0"),
        # inside the window [5/W, 0.2/Delta], with a finite Gamma_p
        ("oracle", "[oracle]\nname = static-noise\nw = 1e300\ndelta = 1.5e154\n"
         "probe_time = 1e-155\nsamples = 10\neps = 0.0\n", 3,
         "precondition violated: delta = 1.5e+154: delta^2 overflows"),
        ("oracle", CONVOLUTION.format(delta="1e200", gamma="0.1"), 3,
         "precondition violated: convolution_reference: delta^2 or gamma^2 overflows"),
        ("oracle", CONVOLUTION.format(delta="0.1", gamma="1e200"), 3,
         "precondition violated: convolution_reference: delta^2 or gamma^2 overflows"),
        ("mrt-scan", OHMIC_NONLOCAL.replace("temperature = 1.0", "temperature = 1e-320", 1)
         + "[mrt-scan]\nshape = gaussian\n[bias-grid]\nstart = -1\nstop = 1\nsteps = 3\n", 2,
         "OhmicCutoff requires 0 < W < inf"),
        ("envelope", OHMIC_NONLOCAL.replace("temperature = 1.0", "temperature = 1e-320", 1), 2,
         "OhmicCutoff requires 0 < W < inf"),
        ("evolve", OHMIC_NONLOCAL.replace("eta = 1.0", "eta = 5e-324")
         .replace("omega_c = 1.0", "omega_c = 1e-320")
         .replace("delta = 1e-170", "delta = 0.01\neps_rate = 0.1")
         + "[evolve]\nmode = local\n", 2, "OhmicCutoff requires 0 < W < inf"),
        # W is finite; X(t) would need 8e19 Matsubara terms per time
        ("envelope", OHMIC_NONLOCAL.replace("omega_c = 1.0", "omega_c = 6.3e19", 1), 3,
         "precondition violated: omega_c/T = 6.3e+19 exceeds 1e+06"),
        # a grid may start before t = 0; X(t) and the short-time rho11 refuse it
        ("envelope", "[spectral]\nkind = white\ns0 = 0.3\n\n"
         "[time-grid]\nstart = -1\nstop = 1\nsteps = 3\n", 3,
         "precondition violated: dephasing_exponent requires t >= 0"),
        ("evolve", OHMIC_NONLOCAL.replace("start = 0.0", "start = -1.0")
         + "[evolve]\nmode = short-time\n", 3,
         "precondition violated: short_time_rho11 requires t >= 0"),
        # Delta(t)^2 overflows from the second grid point on
        ("evolve", OHMIC_NONLOCAL.replace("delta = 1e-170", "delta = 0.01\ndelta_rate = 1e300")
         + "[evolve]\nmode = local\n", 3,
         "precondition violated: non-finite rate at t = 0.1"),
        ("mrt-scan", "[spectral]\nkind = tabulated\ncsv = zero.csv\n\n"
         "[two-state]\ndelta = 0.01\neps = 0.0\ntemperature = 1.0\n\n"
         "[mrt-scan]\nshape = gaussian\n[bias-grid]\nstart = -1\nstop = 1\nsteps = 3\n", 3,
         "precondition violated: tabulated spectrum integrates to zero or overflows"),
        # W^3 beyond a float: the asymmetry m3 / m2^1.5 cannot be formed
        ("peak", "[spectral]\nkind = ohmic\neta = 4.0\nomega_c = 1.0\ntemperature = 1e300\n\n"
         "[two-state]\ndelta = 1.0\neps = 1.0\ntemperature = 1e300\n", 3,
         "precondition violated: W = 1.41e+150: the third moment of the line overflows"),
        # the refined grid splits a step of one subnormal 16 ways into repeated times
        ("oracle", OHMIC_NONLOCAL.replace("stop = 1.0\nsteps = 11", "stop = 5e-324\nsteps = 2")
         + "[oracle]\nname = refined-local\n", 3,
         "precondition violated: time grid must be strictly increasing"),
    ], ids=["static-noise-underflow", "static-noise-delta", "convolution-delta",
            "convolution-gamma", "scan-infinite-ratio", "envelope-infinite-ratio",
            "ramped-local-zero-w", "envelope-beyond-the-ratio-cap", "envelope-negative-time",
            "short-time-negative-time", "ramped-local-rate-overflow", "scan-all-zero-table",
            "peak-third-moment-overflow", "refined-local-subnormal-step"])
    def test_one_line_message(self, tmp_path, capsys, monkeypatch, scenario, body, code,
                              message):
        # the table a tabulated row names, relative to the run directory
        (tmp_path / "zero.csv").write_text("omega,S\n-2,0\n-1,0\n0,0\n1,0\n2,0\n")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "o.csv"
        config = write_config(tmp_path, f"[run]\nscenario = {scenario}\nout = {out}\n\n{body}")
        assert main([scenario, "--config", config]) == code
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    def test_tabulated_span_near_the_float_range(self, tmp_path, capsys):
        # the half-periods of t = 1e10 on a 1e300 span overflow to inf
        spectrum = tmp_path / "huge.csv"
        spectrum.write_text("omega,S\n-1e300,1\n0,1\n1e300,1\n2e300,1\n")
        out = tmp_path / "o.csv"
        config = write_config(tmp_path, f"[run]\nscenario = envelope\nout = {out}\n\n"
                              f"[spectral]\nkind = tabulated\ncsv = {spectrum}\n\n"
                              "[time-grid]\nstart = 0\nstop = 1e10\nsteps = 3\n")
        assert main(["envelope", "--config", config]) == 3
        err = capsys.readouterr().err
        assert "(inf half-periods on the grid span)" in err and err.count("\n") == 1


class TestExitCodes:
    def test_unknown_log_level_is_config_error(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "env.csv"
        config = write_config(
            tmp_path,
            f"[run]\nscenario = envelope\nout = {out}\n\n[spectral]\nkind = white\n"
            "s0 = 0.3\n\n[time-grid]\nstart = 0.0\nstop = 1.0\nsteps = 3\n",
        )
        monkeypatch.setenv("MRTKIT_LOG", "bogus")
        assert main(["envelope", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: MRTKIT_LOG") and err.count("\n") == 1
        assert not out.exists()

    def test_other_exception_is_a_defect(self, tmp_path, monkeypatch):
        # only a RegimeError is a physics precondition (exit 3): any other
        # ValueError is a fault of the program and propagates with its traceback
        def broken(config):
            raise ValueError("an internal fault")

        monkeypatch.setitem(_RUNNERS, "peak", broken)
        config = write_config(tmp_path, f"[run]\nscenario = peak\nout = {tmp_path / 'o.csv'}\n")
        with pytest.raises(ValueError, match="an internal fault"):
            main(["peak", "--config", config])

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
            ("mrt-scan", "two-state", "delta = nan\neps = 0.0\ntemperature = 1.0"),
            ("mrt-scan", "bias-grid", "start = -inf\nstop = 1.0\nsteps = 5"),
            ("oracle", "oracle", "name = convolution\nw = 1.0\ndelta = 0.0\ngamma = 0.1"),
            ("oracle", "oracle", "name = convolution\nw = 1.0\ndelta = -0.01\ngamma = 0.1"),
            # values the library itself rejects
            ("oracle", "oracle", "name = static-noise\nw = -1.0\ndelta = 0.01\n"
                                 "probe_time = 18.0\nsamples = 100\neps = 0.0"),
            ("oracle", "oracle", "name = static-noise\nw = 1.0\ndelta = 0.01\n"
                                 "probe_time = 18.0\nsamples = 0\neps = 0.0"),
            ("oracle", "oracle", "name = static-noise\nw = 1.0\ndelta = 0.0\n"
                                 "probe_time = 18.0\nsamples = 100\neps = 0.0"),
            ("oracle", "oracle", "name = convolution\nw = -1.0\ndelta = 0.01\ngamma = 0.1"),
            ("oracle", "oracle", "name = convolution\nw = 1.0\ndelta = 0.01\ngamma = 0.0"),
            ("oracle", "oracle", "name = convolution\nw = 1.0\ndelta = 0.01\ngamma = -0.1"),
            ("mrt-scan", "mrt-scan", "shape = voigt\ngamma = -0.1"),
            ("evolve", "evolve", "mode = local\nrho11_0 = 1.5"),
            ("oracle", "oracle", "name = refined-local\nrho11_0 = -0.5"),
            # an oracle that would check nothing
            ("oracle", "oracle", "name = static-noise\nw = 1.0\ndelta = 0.01\n"
                                 "probe_time = 18.0\nsamples = 100\neps ="),
            # 1e6 points in a span of 1e-12 repeat values once linspace rounds them
            ("envelope", "time-grid", "start = 1.0\nstop = 1.000000000001\nsteps = 1000000"),
            ("mrt-scan", "bias-grid", "start = 1.0\nstop = 1.000000000001\nsteps = 1000000"),
            ("evolve", "time-grid", "start = 1.0\nstop = 1.000000000001\nsteps = 1000000"),
        ],
        ids=["seed", "eps_p", "steps", "samples", "missing-csv", "nan-delta", "inf-start",
             "zero-oracle-delta", "negative-oracle-delta", "static-noise-negative-w",
             "static-noise-zero-samples", "static-noise-zero-delta", "convolution-negative-w",
             "convolution-zero-gamma", "convolution-negative-gamma", "voigt-negative-gamma",
             "evolve-rho11_0-above-one", "refined-rho11_0-below-zero",
             "static-noise-empty-eps", "envelope-collapsed-grid", "mrt-scan-collapsed-grid",
             "evolve-collapsed-grid"],
    )
    def test_bad_value_is_config_error(self, tmp_path, capsys, scenario, section, body):
        out = tmp_path / "x.csv"
        sections = {
            "run": f"scenario = {scenario}\nout = {out}",
            "spectral": "kind = ohmic\neta = 8.0\nomega_c = 0.02\ntemperature = 1.0",
            "two-state": "delta = 0.001\neps = 0.0\ntemperature = 1.0",
            "bias-grid": "start = -1.0\nstop = 1.0\nsteps = 5",
            "time-grid": "start = 0.0\nstop = 1.0\nsteps = 5",
            "evolve": "mode = local",
        }
        body = body.format(tmp=tmp_path)
        sections[section] = sections[section] + "\n" + body if section == "run" else body
        text = "".join(f"[{name}]\n{lines}\n\n" for name, lines in sections.items())
        config = write_config(tmp_path, text)
        assert main([scenario, "--config", config]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, section, body",
        [("envelope", "run", "units = GHz\n  and more"),
         ("oracle", "oracle", "name = static-noise\nw = 1.0\ndelta = 0.01\n"
                              "probe_time = 18.0\nsamples = 100\neps = 0.0\n  1.0")],
        ids=["continued-units", "continued-eps-list"],
    )
    def test_multi_line_value_is_config_error(self, tmp_path, capsys, scenario, section, body):
        # an echoed continuation line would sit bare among the CSV's "# " comments
        out = tmp_path / "x.csv"
        sections = {
            "run": f"scenario = {scenario}\nout = {out}",
            "spectral": "kind = white\ns0 = 1.0",
            "time-grid": "start = 0.0\nstop = 1.0\nsteps = 5",
        }
        sections[section] = sections[section] + "\n" + body if section == "run" else body
        text = "".join(f"[{name}]\n{lines}\n\n" for name, lines in sections.items())
        config = write_config(tmp_path, text)
        assert main([scenario, "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"[{section}]" in err and "several lines" in err
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

    @pytest.mark.parametrize(
        "section, body",
        [("spectral", "kind = ohmic\neta = 8.0\nomega_c = 0.02\ntemperature = -1.0"),
         ("two-state", "delta = -0.001\neps = 0.0\ntemperature = 1.0")],
        ids=["negative-temperature", "negative-delta"],
    )
    def test_bad_parameter_value_is_config_error(self, tmp_path, capsys, section, body):
        out = tmp_path / "x.csv"
        sections = {
            "run": f"scenario = mrt-scan\nout = {out}",
            "spectral": "kind = ohmic\neta = 8.0\nomega_c = 0.02\ntemperature = 1.0",
            "two-state": "delta = 0.001\neps = 0.0\ntemperature = 1.0",
            "bias-grid": "start = -1.0\nstop = 1.0\nsteps = 5",
        }
        sections[section] = body
        text = "".join(f"[{name}]\n{lines}\n\n" for name, lines in sections.items())
        config = write_config(tmp_path, text)
        assert main(["mrt-scan", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"[{section}]" in err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["absent/x.csv", "."], ids=["missing-dir", "directory"])
    def test_unwritable_output_fails_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                    target):
        out = tmp_path / target
        config = TestMrtScan().config(tmp_path, out)
        computed = []
        monkeypatch.setitem(_RUNNERS, "mrt-scan", lambda cfg: computed.append(cfg))
        assert main(["mrt-scan", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert str(out) in err
        assert computed == []

    def test_existing_output_is_kept_on_config_error(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_text("previous\n")
        config = write_config(
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

[bias-grid]
start = -1.0
stop = 1.0
steps = abc
""",
        )
        assert main(["mrt-scan", "--config", config]) == 2
        assert out.read_text() == "previous\n"

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


    def config(self, tmp_path, out, multichannel="", levels=None, ramp="", temperature=0.8):
        levels = levels or "level_0 = 0.0 0.001 0.0\nlevel_1 = 0.5 0.05 0.0"
        return write_config(
            tmp_path,
            f"""\
[run]
scenario = multichannel
out = {out}

{BASE_SPECTRAL}
[two-state]
temperature = {temperature}
{ramp}

[levels]
{levels}

[multichannel]
eps_p = auto
{multichannel}

[bias-grid]
start = -0.5
stop = 0.5
steps = 5
""",
            name=f"{out.stem}.ini",
        )

    def test_normalized_takes_configparser_boolean_words(self, tmp_path):
        outputs = {}
        for word in ("true", "false", "no"):
            out = tmp_path / f"mc-{word}.csv"
            config = self.config(tmp_path, out, f"normalized = {word}")
            assert main(["multichannel", "--config", config]) == 0
            outputs[word] = read_csv(out)[2]
        assert outputs["no"] == outputs["false"]
        assert outputs["no"] != outputs["true"]

    @pytest.mark.parametrize(
        "multichannel, levels, temperature",
        [("normalized = maybe", None, 0.8),
         ("", "level_0 = 0.0 0.001 0.0\nlevel_2 = 2.2 0.3 0.0", 0.8),
         ("", None, -1.0),
         ("", "level_0 = 0.0 0.001 0.0\nlevel_1 = 0.0 0.05 0.0", 0.8),
         ("", "level_0 = 0.0 0.001 0.0\nlevel_1 = 0.5 0.0 0.0", 0.8),
         ("", "level_0 = 0.0 -0.001 0.0\nlevel_1 = 0.5 0.05 0.0", 0.8),
         ("", "level_0 = 0.0 0.001 0.1\nlevel_1 = 0.5 0.05 0.0", 0.8)],
        ids=["normalized-word", "level-gap", "negative-temperature", "energies-not-increasing",
             "zero-delta", "negative-delta", "ground-relaxation"],
    )
    def test_bad_multichannel_input_is_config_error(self, tmp_path, capsys,
                                                    multichannel, levels, temperature):
        out = tmp_path / "mc.csv"
        config = self.config(tmp_path, out, multichannel, levels, temperature=temperature)
        assert main(["multichannel", "--config", config]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("ramp", ["delta_rate = 5.0", "eps_rate = 3.0"])
    def test_ramp_is_precondition(self, tmp_path, capsys, ramp):
        # the channel sum is read at t = 0: a ramp is refused, not dropped
        out = tmp_path / "mc.csv"
        config = self.config(tmp_path, out, ramp=ramp)
        assert main(["multichannel", "--config", config]) == 3
        assert "time-invariant Hamiltonian required" in capsys.readouterr().err
        assert not out.exists()


class TestOracleScenario:
    @staticmethod
    def convolution_config(tmp_path, out, extra=""):
        return write_config(
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
{extra}
[bias-grid]
start = -2.0
stop = 3.0
steps = 9
""",
        )

    def test_convolution_oracle_passes(self, tmp_path):
        out = tmp_path / "orc.csv"
        assert main(["oracle", "--config", self.convolution_config(tmp_path, out)]) == 0
        _, header, rows = read_csv(out)
        assert header[:3] == ["eps", "faddeeva_rate", "convolution_rate"]
        assert all(row[-1] == "1.0" for row in rows)

    def test_failing_oracle_exits_1_with_rows_from_status(self, tmp_path, capsys):
        out = tmp_path / "orc.csv"
        config = self.convolution_config(tmp_path, out, "tolerance_rel = 1e-30\n")
        assert main(["oracle", "--config", config]) == 1
        _, header, rows = read_csv(out)
        assert header[-1] == "status"
        failed = sum(row[-1] == "0.0" for row in rows)
        assert failed >= 1
        assert capsys.readouterr().out == f"oracle convolution: FAIL ({failed} rows)\n"

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

    @pytest.mark.parametrize("probe_time", ["1.0", "30.0"], ids=["before-5/W", "after-0.2/Delta"])
    def test_probe_window_is_precondition(self, tmp_path, capsys, probe_time):
        # McConfig's window is a RegimeError, a ValueError the config check
        # must let through
        out = tmp_path / "orc.csv"
        config = write_config(
            tmp_path,
            f"[run]\nscenario = oracle\nout = {out}\n\n[oracle]\nname = static-noise\n"
            f"w = 1.0\ndelta = 0.01\nprobe_time = {probe_time}\nsamples = 100\neps = 0.0\n",
        )
        assert main(["oracle", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("precondition violated:") and "probe_time" in err
        assert not out.exists()

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

    def test_failed_suite_keeps_the_previous_file(self, tmp_path, monkeypatch):
        out = tmp_path / "validation.csv"
        out.write_text("previous\n")

        def failing(seed):
            raise RuntimeError("suite failed")

        monkeypatch.setattr("mrtkit.validation.run_all", failing)
        with pytest.raises(RuntimeError, match="suite failed"):
            main(["validate", "--out", str(out)])
        assert out.read_text() == "previous\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_is_config_error(self, tmp_path, capsys, seed):
        out = tmp_path / "validation.csv"
        out.write_text("previous\n")
        assert main(["validate", "--out", str(out), f"--seed={seed}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert "64 bits" in captured.err and "Traceback" not in captured.err
        assert "criterion" not in captured.out
        assert out.read_text() == "previous\n"

    def test_csv_byte_identical_across_runs(self, tmp_path):
        first = tmp_path / "v1.csv"
        second = tmp_path / "v2.csv"
        main(["validate", "--out", str(first)])
        main(["validate", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()
