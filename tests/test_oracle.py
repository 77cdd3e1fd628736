"""Brute-force reference implementations: Monte Carlo, convolution, refinement."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from mrtkit import (
    McConfig,
    OhmicCutoff,
    RegimeError,
    RegimeWarning,
    StaticNoiseEstimate,
    TwoStateParams,
    convolution_reference,
    evolve_local,
    evolve_nonlocal,
    peak_rate,
    refined_local_reference,
    refined_nonlocal_reference,
    static_noise_transition,
    voigt_rate,
)
from mrtkit.dynamics import Trajectory, _as_rate
from mrtkit import _philox
from mrtkit.oracle import _CHUNK, _refined
from mrtkit.validation import DEFAULT_SEED


def finite_time_expectation(delta, w_rms, eps, probe_time):
    """Exact quadrature of E[P1(t)]/t over the static Gaussian noise."""

    def integrand(q):
        x = eps + q
        rabi_sq = delta * delta + x * x
        gauss = math.exp(-0.5 * (q / w_rms) ** 2) / (math.sqrt(2.0 * math.pi) * w_rms)
        return gauss * (delta**2 / rabi_sq) * math.sin(
            0.5 * math.sqrt(rabi_sq) * probe_time
        ) ** 2

    total = 0.0
    edges = np.linspace(-8.0 * w_rms, 8.0 * w_rms, 33)
    resonance = [-eps - 2.0 * delta, -eps, -eps + 2.0 * delta]
    for a, b in zip(edges[:-1], edges[1:]):
        pts = [p for p in resonance if a < p < b]
        total += quad(
            integrand, a, b, points=pts or None, epsabs=1e-18, epsrel=1e-12, limit=2000
        )[0]
    return total / probe_time


def rk45_local_reference(rate_minus, rate_plus, rho11_0, t_grid):
    """The RK45 ``refined_local_reference`` that RK4 replaced, verbatim.

    d rho11/dt = G_-(t) (1 - rho11) - G_+(t) rho11 at rtol 1e-12 and atol
    1e-15, with the fine grid spacing as the step ceiling.
    """
    if not 0.0 <= rho11_0 <= 1.0:
        raise ValueError("rho11_0 must lie in [0, 1]")
    gm = _as_rate(rate_minus)
    gp = _as_rate(rate_plus)

    def rhs(time, state):
        minus, plus = gm(time), gp(time)
        if minus < 0 or plus < 0:
            raise ValueError(f"negative rate at t = {time}")
        return [minus * (1.0 - state[0]) - plus * state[0]]

    def solve(fine):
        sol = solve_ivp(rhs, (fine[0], fine[-1]), [rho11_0], t_eval=fine, method="RK45",
                        rtol=1e-12, atol=1e-15, max_step=np.min(np.diff(fine)))
        if not sol.success:
            raise RuntimeError(f"local evolution failed: {sol.message}")
        return Trajectory(fine, sol.y[0])

    return _refined(solve, t_grid)


def gaussian_noise_samples(seed, count):
    """The first ``count`` draws of the chunked streams, sample i a pure function of (seed, i)."""
    out = np.empty(count)
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        (row,) = _philox.standard_normal(seed, [start // _CHUNK], _CHUNK)
        out[start:stop] = row[: stop - start]
    return out


class TestNoiseSampler:
    def test_bit_identical_reruns(self):
        a = gaussian_noise_samples(42, 10_000)
        b = gaussian_noise_samples(42, 10_000)
        assert np.array_equal(a, b)

    def test_chunk_order_invariance(self):
        # assembling chunks in reverse order reproduces the same samples
        count = 3 * _CHUNK + 17
        forward = gaussian_noise_samples(9, count)
        out = np.empty(count)
        for start in reversed(range(0, count, _CHUNK)):
            stop = min(start + _CHUNK, count)
            rng = np.random.Generator(
                np.random.Philox(key=np.array([9, start // _CHUNK], dtype=np.uint64))
            )
            out[start:stop] = rng.standard_normal(_CHUNK)[: stop - start]
        assert np.array_equal(forward, out)

    def test_prefix_stability(self):
        # sample i depends only on (seed, i), not on the total count
        long = gaussian_noise_samples(3, 2 * _CHUNK + 100)
        short = gaussian_noise_samples(3, _CHUNK + 7)
        assert np.array_equal(long[: _CHUNK + 7], short)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(
            gaussian_noise_samples(1, 1000), gaussian_noise_samples(2, 1000)
        )


def numpy_philox(seed, chunk):
    return np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64))


def numpy_walk(seed, chunk, count=_CHUNK):
    """(first word, words read, layer) of each of NumPy's first count draws of one stream.

    NumPy's own ``Generator`` draws one value at a time; the Philox state
    after each draw gives the words it read.  A layer-0 try that reads more
    than one word went to the tail; a try of another layer that reads more
    than two was a rejected wedge (an accepted one reads two).
    """
    bitgen = numpy_philox(seed, chunk)
    words = numpy_philox(seed, chunk).random_raw(2 * count + 64)
    generator = np.random.Generator(bitgen)
    walk, before = [], 0
    for _ in range(count):
        generator.standard_normal()
        state = bitgen.state
        after = (int(state["state"]["counter"][0]) - 1) * 4 + state["buffer_pos"]
        walk.append((before, after - before, int(words[before]) & 0xFF))
        before = after
    return walk


# NumPy's Generator is the reference of the stream: the extreme keys and every
# chunk of a default validate run
STREAM_KEYS = [(0, 0), (2**64 - 1, 2**64 - 1), *((DEFAULT_SEED, c) for c in range(25))]


class TestStreamIdentity:
    """The NumPy-only stream equals ``np.random.Generator(np.random.Philox(key))``."""

    @pytest.mark.parametrize("seed, chunk", STREAM_KEYS)
    def test_samples_match_numpy_bit_for_bit(self, seed, chunk):
        reference = np.random.Generator(numpy_philox(seed, chunk)).standard_normal(_CHUNK)
        (row,) = _philox.standard_normal(seed, [chunk], _CHUNK)
        assert np.array_equal(row.view(np.uint64), reference.view(np.uint64))

    def test_tables_satisfy_the_ziggurat_relations(self):
        # Layer i spans x_i = wi[i] 2^52, with r = x_255 on the tail; fi[i] =
        # exp(-x_i^2/2), ki[i] = floor(2^52 x_(i-1)/x_i), and every layer has
        # the area v of the base strip, whose width is wi[0] 2^52 = v/f(r).
        # NumPy's tables meet these to about 1e-15, so a typo in any of the
        # first 12 digits of an entry fails here.
        ki = np.array(_philox._KI, dtype=float)
        wi, fi = np.array(_philox._WI), np.array(_philox._FI)
        x, r = wi * 2.0**52, _philox._R
        assert r == x[255] and _philox._INV_R * r == 1.0
        assert fi[0] == 1.0 and ki[1] == 0.0
        np.testing.assert_allclose(fi[1:], np.exp(-0.5 * x[1:] ** 2), rtol=1e-15, atol=0)
        assert np.max(np.abs(ki[2:] - np.floor(2.0**52 * x[1:255] / x[2:]))) <= 1.0
        f_r = math.exp(-0.5 * r * r)
        v = r * f_r + math.sqrt(math.pi / 2) * math.erfc(r / math.sqrt(2))
        np.testing.assert_allclose(x[2:] * (fi[1:255] - fi[2:]), v, rtol=1e-13)
        np.testing.assert_allclose([x[1] * (1.0 - fi[1]), x[0] * f_r, ki[0]],
                                   [v, v, 2.0**52 * r * f_r / v], rtol=1e-13)

    def test_raw_words_match_numpy(self):
        for seed, chunks in [(0, [0]), (2**64 - 1, [2**64 - 1]), (DEFAULT_SEED, range(25))]:
            words = _philox._philox(seed, np.array(chunks, dtype=np.uint64), 300)
            for chunk, row in zip(chunks, words):
                assert np.array_equal(row, numpy_philox(seed, chunk).random_raw(1200))

    def test_keys_reach_the_tail_and_a_rejected_wedge(self):
        # both slow branches run on these keys, so their constants are checked too
        tails = rejected = 0
        for seed, chunk in STREAM_KEYS:
            for _, read, layer in numpy_walk(seed, chunk):
                tails += layer == 0 and read > 1
                rejected += layer != 0 and read > 2
            if tails and rejected:
                break
        assert tails and rejected

    def test_words_running_out_mid_try_redraw_the_stream(self, monkeypatch):
        # Blocks end inside a tail try (after 1 or 2 of its words) and on a
        # wedge try's last word: the stream is drawn again, longer, and still
        # equals NumPy's.
        ran_out = []
        real_tail = _philox._tail

        def tail(words, j, end):
            drawn = real_tail(words, j, end)
            if drawn is None:
                ran_out.append(j)
            return drawn

        monkeypatch.setattr(_philox, "_tail", tail)
        cases = {}
        for seed, chunk in STREAM_KEYS[2:]:
            for draw, (first, read, layer) in enumerate(numpy_walk(seed, chunk)):
                tail_cut = layer == 0 and read > 1 and first % 4 >= 2
                wedge_cut = layer != 0 and read > 1 and first % 4 == 3
                if tail_cut or wedge_cut:
                    cases.setdefault(tail_cut, (seed, chunk, draw, first // 4 + 1))
            if len(cases) == 2:
                break
        assert len(cases) == 2
        for seed, chunk, draw, blocks in cases.values():
            reference = np.random.Generator(numpy_philox(seed, chunk)).standard_normal(draw + 1)
            (row,) = _philox.standard_normal(seed, [chunk], draw + 1, blocks)
            assert np.array_equal(row.view(np.uint64), reference.view(np.uint64))
        assert ran_out


def whole_array_transition(config, eps):
    """The whole-array ``static_noise_transition`` that streaming replaced, verbatim.

    All samples and temporaries at full length, one bias per call.
    """
    q = config.w_rms * gaussian_noise_samples(config.seed, config.sample_count)
    if config.delta == 0.0:
        return StaticNoiseEstimate(0.0, 0.0, config.sample_count)
    rabi_sq = config.delta**2 + (eps + q) ** 2
    occupancy = (config.delta**2 / rabi_sq) * np.sin(
        0.5 * np.sqrt(rabi_sq) * config.probe_time
    ) ** 2
    # np.mean/np.var reduce pairwise in fixed index order
    mean = float(np.mean(occupancy))
    spread = float(np.std(occupancy, ddof=1)) if config.sample_count > 1 else 0.0
    stderr = spread / math.sqrt(config.sample_count)
    return StaticNoiseEstimate(
        rate=mean / config.probe_time,
        stderr=stderr / config.probe_time,
        sample_count=config.sample_count,
    )


class TestMcConfig:
    def test_probe_window_enforced(self):
        with pytest.raises(RegimeError, match="5/W"):
            McConfig(1000, 0, w_rms=1.0, delta=0.01, probe_time=2.0)
        with pytest.raises(RegimeError, match="0.2/Delta"):
            McConfig(1000, 0, w_rms=1.0, delta=0.01, probe_time=30.0)

    def test_basic_validation(self):
        with pytest.raises(ValueError):
            McConfig(0, 0, w_rms=1.0, delta=0.01, probe_time=10.0)
        with pytest.raises(ValueError):
            McConfig(10, 0, w_rms=-1.0, delta=0.01, probe_time=10.0)


class TestStaticNoiseTransition:
    def test_zero_amplitude_gives_zero_rate(self):
        config = McConfig(1000, 5, w_rms=1.0, delta=0.0, probe_time=10.0)
        (estimate,) = static_noise_transition(config, [0.0])
        assert estimate.rate == 0.0
        assert estimate.stderr == 0.0

    def test_zero_amplitude_draws_no_sample(self, monkeypatch):
        def refuse(seed, keys, size, blocks=None):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(_philox, "standard_normal", refuse)
        config = McConfig(10 * _CHUNK, 5, w_rms=1.0, delta=0.0, probe_time=10.0)
        assert len(static_noise_transition(config, [0.0, 1.0])) == 2

    def test_matches_exact_expectation_within_errors(self):
        # the sampler is unbiased for the finite-time expectation
        biases = (0.0, 1.0, 2.0)
        config = McConfig(100_000, 20260810, w_rms=1.0, delta=0.01, probe_time=10.0)
        for eps, estimate in zip(biases, static_noise_transition(config, biases)):
            exact = finite_time_expectation(0.01, 1.0, eps, 10.0)
            assert abs(estimate.rate - exact) <= 3.0 * estimate.stderr

    def test_bias_suppression_factor(self):
        # long probe, wide window (W/Delta = 1000): rate(2W)/rate(0) ~ e^{-2}
        config = McConfig(sample_count=200_000, seed=11, w_rms=1.0, delta=0.001,
                          probe_time=100.0)
        center, offset = static_noise_transition(config, [0.0, 2.0])
        assert offset.rate / center.rate == pytest.approx(math.exp(-2.0), rel=0.10)

    def test_standard_error_scaling(self):
        # SE ~ 1/sqrt(N) within 20%
        errors = []
        for count in (10_000, 40_000, 160_000):
            config = McConfig(count, 7, w_rms=1.0, delta=0.01, probe_time=10.0)
            errors.append(static_noise_transition(config, [0.0])[0].stderr)
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.2)
        assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.2)

    def test_deterministic_estimate(self):
        config = McConfig(50_000, 123, w_rms=1.0, delta=0.01, probe_time=10.0)
        first = static_noise_transition(config, [0.5])
        second = static_noise_transition(config, [0.5])
        assert first == second

    @pytest.mark.parametrize("count", [1, 2, _CHUNK, 3 * _CHUNK + 17, 100_000])
    @pytest.mark.parametrize("biases", [(0.5,), (0.0, 1.0, 2.0)], ids=["1-bias", "3-biases"])
    @pytest.mark.parametrize("delta", [0.01, 0.0], ids=["delta", "zero-delta"])
    def test_streaming_matches_whole_array(self, count, biases, delta):
        # chunk-merged moments agree with the whole-array np.mean/np.std
        config = McConfig(count, 20260810, w_rms=1.0, delta=delta, probe_time=10.0)
        streamed = static_noise_transition(config, biases)
        assert len(streamed) == len(biases)
        for eps, estimate in zip(biases, streamed):
            reference = whole_array_transition(config, eps)
            assert estimate.sample_count == count
            assert estimate.rate == pytest.approx(reference.rate, rel=1e-13, abs=0.0)
            assert estimate.stderr == pytest.approx(reference.stderr, rel=1e-13, abs=0.0)

    def test_memory_does_not_grow_with_sample_count(self):
        config = McConfig(1_000_000, 3, w_rms=1.0, delta=0.01, probe_time=10.0)
        tracemalloc.start()
        try:
            static_noise_transition(config, [0.0, 1.0, 2.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestConvolutionReference:
    def test_delta_like_lorentzian_recovers_gaussian(self):
        grid = np.linspace(-3.0, 4.0, 15)
        conv = convolution_reference(0.01, 1.0, grid, 0.4, 1e-6)
        gauss = voigt_rate(0.01, 1.0, grid, 0.4, 0.0)
        assert np.max(np.abs(conv - gauss) / gauss) <= 1e-4

    def test_mutual_consistency_with_faddeeva_path(self):
        grid = np.linspace(-4.0, 5.0, 50)
        conv = convolution_reference(0.01, 1.0, grid, 0.3, 1.0)
        fadd = voigt_rate(0.01, 1.0, grid, 0.3, 1.0)
        assert np.max(np.abs(conv - fadd) / conv) <= 1e-8

    def test_curve_area(self):
        delta = 0.02
        profile = lambda e: convolution_reference(delta, 1.0, [e], 0.0, 0.5)[0]
        cut = 60.0
        area = (
            quad(profile, -np.inf, -cut, epsabs=1e-16, epsrel=1e-8)[0]
            + quad(profile, -cut, cut, epsabs=1e-16, epsrel=1e-8, limit=400)[0]
            + quad(profile, cut, np.inf, epsabs=1e-16, epsrel=1e-8)[0]
        )
        assert area == pytest.approx(math.pi * delta * delta / 2.0, rel=1e-6)

    def test_requires_positive_width(self):
        with pytest.raises(ValueError):
            convolution_reference(0.01, 1.0, [0.0], 0.0, 0.0)


class TestRefinedReference:
    def test_constant_rate_matches_closed_form(self):
        grid = np.linspace(0.0, 40.0, 81)
        reference = refined_local_reference(0.05, 0.05, 0.0, grid)
        closed = 0.5 * (1.0 - np.exp(-0.1 * grid))
        assert np.max(np.abs(reference.rho11 - closed)) <= 1e-9

    def test_volterra_convergence_order(self):
        # Richardson slope of the product-trapezoid scheme
        model = OhmicCutoff(eta=8.0, omega_c=1.0, temperature=0.25)
        params = TwoStateParams(delta=0.4, eps=2.0, temperature=0.25)
        solutions = []
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for factor in (1, 2, 4):
                grid = np.linspace(0.0, 20.0, 200 * factor + 1)
                traj = evolve_nonlocal(model, params, 0.0, grid, w_rms=1.0)
                solutions.append(traj.rho11[::factor])
        d1 = np.max(np.abs(solutions[0] - solutions[1]))
        d2 = np.max(np.abs(solutions[1] - solutions[2]))
        assert 1.8 <= math.log2(d1 / d2) <= 2.2

    def test_nonlocal_refinement_measures_second_order_error(self):
        # the gap to the 16-fold refined run shrinks fourfold as the step halves
        model = OhmicCutoff(eta=8.0, omega_c=1.0, temperature=0.25)
        params = TwoStateParams(delta=0.4, eps=2.0, temperature=0.25)
        gaps = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            for n in (201, 401):
                grid = np.linspace(0.0, 20.0, n)
                reference = refined_nonlocal_reference(model, params, 0.0, grid)
                assert np.array_equal(reference.t, grid)
                production = evolve_nonlocal(model, params, 0.0, grid)
                gaps.append(np.max(np.abs(production.rho11 - reference.rho11)))
        assert 1.8 <= math.log2(gaps[0] / gaps[1]) <= 2.2

    def test_landau_zener_refinement_run(self):
        w, eps_p0, speed = 1.0, 0.5, 0.02
        gp = peak_rate(0.01, w)
        minus = lambda t: gp * math.exp(-0.5 * ((-30.0 + speed * t) - eps_p0) ** 2)
        plus = lambda t: gp * math.exp(-0.5 * ((-30.0 + speed * t) + eps_p0) ** 2)
        grid = np.linspace(0.0, 3000.0, 301)
        production = evolve_local(minus, plus, 0.0, grid)
        reference = refined_local_reference(minus, plus, 0.0, grid)
        assert np.max(np.abs(production.rho11 - reference.rho11)) <= 1e-6

    @pytest.mark.parametrize("case", ["constant", "landau-zener", "ramp"])
    def test_matches_rk45_reference(self, case):
        if case == "constant":
            rates, grid = (0.05, 0.02), np.linspace(0.0, 40.0, 81)
        elif case == "landau-zener":
            gp = peak_rate(0.01, 1.0)
            rates = (lambda t: gp * math.exp(-0.5 * ((-30.0 + 0.02 * t) - 0.5) ** 2),
                     lambda t: gp * math.exp(-0.5 * ((-30.0 + 0.02 * t) + 0.5) ** 2))
            grid = np.linspace(0.0, 3000.0, 301)
        else:
            rates, grid = (lambda t: 0.1 + 0.01 * t, lambda t: 0.05), np.linspace(0.0, 20.0, 41)
        rk4 = refined_local_reference(*rates, 0.3, grid)
        rk45 = rk45_local_reference(*rates, 0.3, grid)
        assert np.array_equal(rk4.t, grid)
        assert np.max(np.abs(rk4.rho11 - rk45.rho11)) <= 1e-12

    def test_unsettled_substeps_raise(self):
        # rate * fine step = 6e6: RK4 needs over 2^21 substeps to be stable
        with pytest.raises(RegimeError, match="not settled"):
            refined_local_reference(lambda t: 1e8, 0.0, 0.0, [0.0, 1.0])

    def test_negative_rate_is_refused(self):
        with pytest.raises(ValueError, match="negative rate"):
            refined_local_reference(lambda t: 0.1 - 0.02 * t, 0.0, 0.0, [0.0, 10.0])
