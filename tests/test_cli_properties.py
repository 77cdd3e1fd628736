"""Fuzzed configs keep the CLI's exit-code contract: 0, 1, 2 or 3, never a traceback."""

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrtkit.cli import main

# 1e-5, 1e-8 and 1e8 put omega_c/T on both sides of the ohmic X(t)'s cap of
# 1e6 (5e3..5e5 below it, 5e6..2e10 above it), as well as past 1e99.
EXTREMES = ["5e-324", "1e-320", "1e-170", "1e-8", "1e-5", "0", "-0.5", "-1e300", "1e8",
            "1e200", "1e300", "nan", "inf", "abc", ""]


def mostly(valid, invalid):
    """valid four times in five, so that most draws get past the config checks."""
    return st.integers(0, 4).flatmap(lambda k: invalid if k == 0 else valid)


number = mostly(st.floats(0.05, 5.0).map(repr), st.sampled_from(EXTREMES))
steps = mostly(st.sampled_from(["2", "5", "21"]),
               st.sampled_from(["1", "0", "-3", "1000001", "2.5", "x"]))
seed = mostly(st.sampled_from(["0", "7"]), st.sampled_from(["-1", "x"]))

# [spectral] csv names one of these tables, written next to the config
TABLES = {
    "even.csv": "omega,S\n-2,0\n-1,1\n0,3\n1,2\n2,0.5\n",
    "noise.csv": "omega,S\n-2,0\n-1,2\n0,5\n1,2\n2,0\n",
    "one-sided.csv": "omega,S\n0,1\n1,2\n2,1\n3,0\n",
    "bad.csv": "omega,S\n-1,0\n0,abc\n1,1\n2,0\n",
}

spectral = st.one_of(
    st.fixed_dictionaries({"kind": st.just("ohmic"), "eta": number, "omega_c": number,
                           "temperature": number}),
    st.fixed_dictionaries({"kind": st.just("white"), "s0": number}),
    st.fixed_dictionaries({"kind": st.just("tabulated"),
                           "csv": st.sampled_from([*TABLES, "missing.csv"])}),
)
two_state = st.fixed_dictionaries(
    {"delta": number, "eps": number, "temperature": number},
    optional={"delta_rate": number, "eps_rate": number},
)
grid = st.fixed_dictionaries({"start": st.one_of(st.just("0"), number), "stop": number,
                              "steps": steps})
numbers = st.lists(number, min_size=0, max_size=3).map(" ".join)


def scenario(name, **sections):
    return st.fixed_dictionaries({"run": st.fixed_dictionaries(
        {"scenario": st.just(name)}, optional={"seed": seed}),
        **sections}).map(lambda config: (name, config))


configs = st.one_of(
    scenario("envelope", spectral=spectral, **{"two-state": st.fixed_dictionaries(
        {}, optional={"eps": number, "eps_rate": number}), "time-grid": grid}),
    scenario("mrt-scan", spectral=spectral, **{"two-state": two_state, "bias-grid": grid},
             **{"mrt-scan": st.fixed_dictionaries(
                 {"shape": st.sampled_from(["gaussian", "classical", "voigt",
                                            "nonlocal-corrected", "lorentz"])},
                 optional={"eps_p": st.one_of(st.just("auto"), number), "gamma": number})}),
    scenario("evolve", spectral=spectral, **{"two-state": two_state, "time-grid": grid},
             evolve=st.fixed_dictionaries(
                 {"mode": st.sampled_from(["local", "nonlocal", "short-time", "other"])},
                 optional={"eps_p": st.one_of(st.just("auto"), number), "rho11_0": number})),
    scenario("peak", spectral=spectral, **{"two-state": two_state}),
    scenario("multichannel", spectral=spectral, **{"two-state": two_state, "bias-grid": grid},
             multichannel=st.fixed_dictionaries(
                 {}, optional={"eps_p": number,
                               "normalized": st.sampled_from(["true", "no", "x"])}),
             levels=st.fixed_dictionaries(
                 {"level_0": st.tuples(st.just("0"), number, st.just("0")).map(" ".join)},
                 optional={"level_1": st.tuples(number, number, number).map(" ".join)})),
    scenario("oracle", oracle=st.fixed_dictionaries(
        {"name": st.just("static-noise"), "w": number, "delta": number, "probe_time": number,
         "samples": st.sampled_from(["1", "2", "100", "0", "-1", "x"]), "eps": numbers},
        optional={"tolerance_rel": number})),
    scenario("oracle", oracle=st.fixed_dictionaries(
        {"name": st.just("convolution"), "w": number, "delta": number, "gamma": number},
        optional={"eps_p": number, "tolerance_rel": number}), **{"bias-grid": grid}),
    scenario("oracle", spectral=spectral, **{"two-state": two_state, "time-grid": grid},
             oracle=st.fixed_dictionaries(
                 {"name": st.sampled_from(["refined-local", "refined-nonlocal"])},
                 optional={"rho11_0": number, "tolerance_sup": number})),
)


def render(config: dict) -> str:
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
                   for section, body in config.items())


def ohmic(eta="1.0", omega_c="1.0", temperature="1.0"):
    return {"kind": "ohmic", "eta": eta, "omega_c": omega_c, "temperature": temperature}


TWO_STATE = {"delta": "0.01", "eps": "0.0", "temperature": "1.0"}
TIME_GRID = {"start": "0", "stop": "1", "steps": "11"}
BIAS_GRID = {"start": "-1", "stop": "1", "steps": "3"}


def convolution(delta, gamma):
    return ("oracle", {"run": {"scenario": "oracle"}, "bias-grid": BIAS_GRID,
                       "oracle": {"name": "convolution", "w": "1", "delta": delta,
                                  "gamma": gamma}})


@settings(max_examples=150, deadline=None)
@given(configs)
# Gamma_p underflows to 0: the step bound divided by it
@example(("evolve", {"run": {"scenario": "evolve"}, "spectral": ohmic(),
                     "two-state": {**TWO_STATE, "delta": "1e-170"}, "time-grid": TIME_GRID,
                     "evolve": {"mode": "nonlocal"}}))
@example(("oracle", {"run": {"scenario": "oracle"}, "spectral": ohmic(),
                     "two-state": {**TWO_STATE, "delta": "1e-170"}, "time-grid": TIME_GRID,
                     "oracle": {"name": "refined-nonlocal"}}))
# the closed static-noise rate underflows to 0 at eps = 40 W
@example(("oracle", {"run": {"scenario": "oracle"},
                     "oracle": {"name": "static-noise", "w": "1", "delta": "0.01",
                                "probe_time": "10", "samples": "100", "eps": "0.0 40.0"}}))
# Delta^2 or gamma^2 beyond a float
@example(convolution("1e200", "0.1"))
@example(convolution("0.1", "1e200"))
# omega_c / 2 pi T is infinite
@example(("mrt-scan", {"run": {"scenario": "mrt-scan"}, "spectral": ohmic(temperature="1e-320"),
                       "two-state": TWO_STATE, "bias-grid": BIAS_GRID,
                       "mrt-scan": {"shape": "gaussian"}}))
@example(("envelope", {"run": {"scenario": "envelope"}, "spectral": ohmic(temperature="1e-320"),
                       "time-grid": TIME_GRID}))
# W = 0 under a ramped local evolve
@example(("evolve", {"run": {"scenario": "evolve"},
                     "spectral": ohmic(eta="5e-324", omega_c="1e-320"),
                     "two-state": {**TWO_STATE, "eps_rate": "0.1"}, "time-grid": TIME_GRID,
                     "evolve": {"mode": "local"}}))
# found by this test: the line's third moment W^3 underflows in peak
@example(("peak", {"run": {"scenario": "peak"},
                   "spectral": ohmic(omega_c="5e-324", temperature="2.0"),
                   "two-state": {**TWO_STATE, "delta": "5e-324", "eps": "1.0"}}))
# found by this test: the refined-local RK4 cannot settle a step of 1e200
@example(("oracle", {"run": {"scenario": "oracle"},
                     "spectral": ohmic(eta="1e-320", temperature="1e200"),
                     "two-state": {"delta": "1.0", "eps": "5e-324", "temperature": "5e-324"},
                     "time-grid": {"start": "0", "stop": "1e200", "steps": "2"},
                     "oracle": {"name": "refined-local"}}))
# omega_c/T = 5e5, just below the X(t) cap: 6.4e5 Matsubara terms in ten blocks
@example(("envelope", {"run": {"scenario": "envelope"},
                       "spectral": ohmic(omega_c="5.0", temperature="1e-5"),
                       "time-grid": {"start": "0", "stop": "1", "steps": "2"}}))
def test_fuzzed_config_keeps_the_exit_code_contract(case):
    command, config = case
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in TABLES.items():
            with open(os.path.join(workdir, name), "w") as handle:
                handle.write(text)
        if "csv" in config.get("spectral", {}):
            config = {**config, "spectral": {**config["spectral"], "csv": os.path.join(
                workdir, config["spectral"]["csv"])}}
        path = os.path.join(workdir, "run.ini")
        with open(path, "w") as handle:
            handle.write(render(config))
        out = os.path.join(workdir, "out.csv")

        def run():
            err, stdout = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
                code = main([command, "--config", path, "--out", out])
            return code, err.getvalue(), stdout.getvalue()

        code, err, stdout = run()
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code == 0:
            # a rerun of the same config writes the same bytes
            with open(out, "rb") as handle:
                first = handle.read()
            os.remove(out)
            assert run() == (0, err, stdout)
            with open(out, "rb") as handle:
                assert handle.read() == first
