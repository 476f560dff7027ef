import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscconv.inference
from oscconv import (
    ConfigurationError,
    DivergenceError,
    DomPolicy,
    InsufficientDataError,
    NumericError,
    OscillatorArrayConfig,
    SimulationTrace,
    classify_lock,
    default_coupling,
    default_timestep,
    derivative,
    dom,
    instantaneous_frequency,
    integrate,
    measure_lock_time,
    peak_detector,
    random_initial_state,
    sweep_locking,
)


def two_osc_cfg(**kw):
    base = dict(n=2, delta_omega=0.05, epsilon=0.05, t_end=400.0)
    base.update(kw)
    return OscillatorArrayConfig(**base)


class TestConfig:
    def test_defaults(self):
        cfg = OscillatorArrayConfig(n=25)
        assert cfg.epsilon == pytest.approx(default_coupling(25, 0.05))
        assert cfg.epsilon == pytest.approx(3.0 * 0.05 / 25)
        assert cfg.dt == pytest.approx(default_timestep(1.0 + 2 * 0.05))
        assert cfg.omega_max == pytest.approx(1.1)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=0),
            dict(n=2, rho=0.0),
            dict(n=2, rho=-1.0),
            dict(n=2, omega0=0.0),
            dict(n=2, delta_omega=-0.1),
            dict(n=2, epsilon=-0.01),
            dict(n=2, dt=-0.1),
            dict(n=2, t_end=0.0, dt=0.1),
            dict(n=2, stride=0),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigurationError):
            OscillatorArrayConfig(**kw)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["rho", "omega0", "delta_omega", "epsilon", "dt", "t_end"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            OscillatorArrayConfig(n=2, **{name: value})

    def test_caps_recorded_values(self):
        with pytest.raises(ConfigurationError, match="t_end.*dt.*stride"):
            OscillatorArrayConfig(n=25, dt=1e-5)
        # t_end/dt overflows a float: rejected, not an OverflowError
        with pytest.raises(ConfigurationError, match="2\\*\\*24"):
            OscillatorArrayConfig(n=2, dt=1e-10, t_end=1e300)
        # exactly 2**24 samples of one oscillator fit, one more does not
        cfg = OscillatorArrayConfig(n=1, delta_omega=0.0, dt=0.125, t_end=(2**24 - 1) * 0.125)
        assert cfg.num_samples == 2**24
        with pytest.raises(ConfigurationError):
            OscillatorArrayConfig(n=1, delta_omega=0.0, dt=0.125, t_end=2**24 * 0.125)
        # a longer run fits at a coarser stride
        assert OscillatorArrayConfig(n=25, dt=1e-5, stride=100).num_samples == 400_001

    def test_dt_accuracy_guard(self):
        limit = 2.0 * math.pi / (25.0 * 1.1)
        with pytest.raises(ConfigurationError):
            OscillatorArrayConfig(n=2, delta_omega=0.05, dt=1.01 * limit)
        OscillatorArrayConfig(n=2, delta_omega=0.05, dt=0.99 * limit)

    def test_integrate_guards_against_fast_omega(self):
        # dt fine for the config's encodable range but too coarse for the
        # frequencies actually passed in
        cfg = OscillatorArrayConfig(n=1, delta_omega=0.0, epsilon=0.0, t_end=10.0)
        with pytest.raises(ConfigurationError):
            integrate(np.array([3.0]), cfg, np.array([1.0 + 0j]))


class TestDerivative:
    def test_limit_cycle_point(self):
        cfg = OscillatorArrayConfig(n=1, delta_omega=0.0, epsilon=0.0)
        rate = derivative(np.array([1.0 + 0j]), np.array([1.0]), cfg)
        assert rate[0] == pytest.approx(1j)

    def test_zero_state(self):
        cfg = OscillatorArrayConfig(n=1, delta_omega=0.0, epsilon=0.0)
        rate = derivative(np.array([0.0 + 0j]), np.array([2.0]), cfg)
        assert rate[0] == 0.0

    def test_matches_scalar_expansion(self):
        # independent element-wise evaluation of the same formula
        cfg = OscillatorArrayConfig(n=2, delta_omega=0.05, epsilon=0.1)
        z = np.array([1.0 + 0.0j, 1.0 + 0.0j])
        omega = np.array([1.0, 1.05])
        rate = derivative(z, omega, cfg)
        total = z[0] + z[1]
        for i in range(2):
            mag2 = z[i].real ** 2 + z[i].imag ** 2
            expected = (1.0 + 1j * omega[i]) * z[i] - 1.0 * z[i] * mag2 + 0.1 * total
            assert rate[i] == pytest.approx(expected, rel=1e-15)

    def test_self_sum_flag(self):
        cfg_in = OscillatorArrayConfig(n=2, delta_omega=0.0, epsilon=0.1)
        cfg_out = OscillatorArrayConfig(
            n=2, delta_omega=0.0, epsilon=0.1, include_self_in_sum=False
        )
        z = np.array([0.5 + 0.5j, -0.3 + 0.1j])
        omega = np.ones(2)
        diff = derivative(z, omega, cfg_in) - derivative(z, omega, cfg_out)
        assert np.allclose(diff, 0.1 * z)

    def test_length_mismatch(self):
        cfg = OscillatorArrayConfig(n=2, delta_omega=0.0, epsilon=0.0)
        with pytest.raises(ConfigurationError):
            derivative(np.ones(3, dtype=complex), np.ones(3), cfg)

    def test_non_finite(self):
        cfg = OscillatorArrayConfig(n=2, delta_omega=0.0, epsilon=0.0)
        with pytest.raises(NumericError):
            derivative(np.array([np.nan + 0j, 0j]), np.ones(2), cfg)


class TestIntegrate:
    def test_limit_cycle_amplitude(self):
        cfg = OscillatorArrayConfig(n=1, delta_omega=0.0, epsilon=0.0, t_end=50.0)
        trace = integrate(np.array([1.0]), cfg, np.array([0.1 + 0j]))
        assert abs(abs(trace.states[-1, 0]) - 1.0) < 1e-3

    def test_limit_cycle_scales_with_rho(self):
        cfg = OscillatorArrayConfig(n=1, rho=2.0, delta_omega=0.0, epsilon=0.0, t_end=25.0)
        trace = integrate(np.array([1.0]), cfg, np.array([0.1 + 0j]))
        assert abs(abs(trace.states[-1, 0]) - 1.0) < 1e-3

    def test_zero_detuning_locks(self):
        cfg = two_osc_cfg()
        trace = integrate(np.array([1.0, 1.0]), cfg, random_initial_state(2, 3))
        tail = trace.num_samples // 10
        gap = np.diff(trace.phases[-tail:], axis=1).ravel()
        assert gap.std() < 1e-9
        freq = trace.inst_freq[-tail:].mean(axis=0)
        assert abs(freq[1] - freq[0]) < 1e-9

    def test_locking_inside_and_outside(self):
        eps = 0.05
        cfg = two_osc_cfg(t_end=600.0)
        inside = integrate(
            np.array([1.0 - 0.25 * eps, 1.0 + 0.25 * eps]), cfg, random_initial_state(2, 0)
        )
        outside = integrate(
            np.array([1.0 - 1.5 * eps, 1.0 + 1.5 * eps]), cfg, random_initial_state(2, 0)
        )
        tail = inside.num_samples // 10
        gap_in = np.abs(np.diff(inside.inst_freq[-tail:].mean(axis=0)))[0]
        gap_out = np.abs(np.diff(outside.inst_freq[-tail:].mean(axis=0)))[0]
        assert gap_in < 0.1 * eps
        assert gap_out > eps
        # locked: the phase difference stops growing; unlocked: it keeps
        # accumulating at roughly the pulled beat frequency
        half = inside.num_samples // 2
        gap_growth = lambda tr: abs(
            (tr.phases[-1, 1] - tr.phases[-1, 0]) - (tr.phases[half, 1] - tr.phases[half, 0])
        )
        assert gap_growth(inside) < 0.1
        assert gap_growth(outside) > 4 * math.pi

    def test_divergence_guard_reports_step(self):
        # mean-field gain far above the nonlinear damping pushes the
        # coherent amplitude past 10*sqrt(n)
        cfg = OscillatorArrayConfig(
            n=5, rho=1e-3, delta_omega=0.0, epsilon=0.5, t_end=100.0, dt=0.1
        )
        with pytest.raises(DivergenceError) as err:
            integrate(np.ones(5), cfg, random_initial_state(5, 1))
        assert err.value.step >= 1

    def test_deterministic_and_immutable(self):
        cfg = two_osc_cfg(t_end=50.0)
        omega = np.array([1.0, 1.02])
        init = random_initial_state(2, 9)
        a = integrate(omega, cfg, init)
        b = integrate(omega, cfg, init)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)
        with pytest.raises(ValueError):
            a.states[0, 0] = 0

    @pytest.mark.parametrize("include_self", [True, False])
    def test_one_step_is_rk4_over_derivative(self, include_self):
        # integrate and derivative evaluate one vector field
        dt = 0.1
        cfg = OscillatorArrayConfig(
            n=3, epsilon=0.02, include_self_in_sum=include_self, dt=dt, t_end=dt
        )
        omega = np.array([0.95, 1.0, 1.08])
        z = random_initial_state(3, 4)
        k1 = derivative(z, omega, cfg)
        k2 = derivative(z + 0.5 * dt * k1, omega, cfg)
        k3 = derivative(z + 0.5 * dt * k2, omega, cfg)
        k4 = derivative(z + dt * k3, omega, cfg)
        expected = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        trace = integrate(omega, cfg, z)
        assert trace.num_samples == 2
        assert np.array_equal(trace.states[1], expected)

    def test_leaves_callers_arrays_writeable(self):
        omega = np.array([1.0, 1.02])
        init = random_initial_state(2, 9)
        integrate(omega, two_osc_cfg(t_end=5.0), init)
        omega[0] = 1.01
        init[0] = 1.0

    def test_trace_leaves_callers_arrays_writeable(self):
        cfg = OscillatorArrayConfig(n=2, delta_omega=0.0, epsilon=0.0, dt=0.1, t_end=9.9)
        times = np.arange(100) * 0.1
        states = np.full((100, 2), 0.3 + 0.4j)
        averager = states.mean(axis=1)
        trace = SimulationTrace(times=times, states=states, config=cfg, averager=averager)
        assert times.flags.writeable and states.flags.writeable and averager.flags.writeable
        for arr in (trace.times, trace.states, trace.averager):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_uniform_sampling_with_stride(self):
        cfg = two_osc_cfg(t_end=50.0, stride=4)
        trace = integrate(np.array([1.0, 1.01]), cfg, random_initial_state(2, 5))
        spacing = np.diff(trace.times)
        assert np.allclose(spacing, cfg.stride * cfg.dt)
        assert trace.num_samples == trace.states.shape[0]

    def test_envelope_bounds(self):
        # triangle inequality and the coherent-gain amplitude bound
        for seed in range(5):
            cfg = OscillatorArrayConfig(n=9, t_end=100.0, epsilon=0.02)
            omega = 1.0 + 0.05 * np.linspace(-2, 2, 9)
            trace = integrate(omega, cfg, random_initial_state(9, seed))
            max_amp = np.abs(trace.states).max(axis=1)
            assert (trace.envelope <= max_amp + 1e-12).all()
            bound = math.sqrt(1.0 + cfg.epsilon * cfg.n / cfg.rho)
            assert trace.envelope.max() <= bound + 1e-9


# Rows for the batch tests: five oscillators each, frequencies inside the
# FSK range, so some rows lock and some do not.
BATCH_OMEGA = 1.0 + 0.05 * np.random.default_rng(11).uniform(-2.0, 2.0, (6, 5))
BATCH_INIT = np.array([random_initial_state(5, seed) for seed in range(6)])
BATCH_CONFIGS = (
    OscillatorArrayConfig(n=5, t_end=60.0),
    OscillatorArrayConfig(n=5, t_end=60.0, stride=3, include_self_in_sum=False),
)


@lru_cache(maxsize=None)
def single_run(config: int, row: int) -> SimulationTrace:
    return integrate(BATCH_OMEGA[row], BATCH_CONFIGS[config], BATCH_INIT[row])


@lru_cache(maxsize=None)
def reversed_block(config: int) -> SimulationTrace:
    """Every batch row in one block, last row first."""
    return integrate(BATCH_OMEGA[::-1], BATCH_CONFIGS[config], BATCH_INIT[::-1])


class TestBatchedIntegrate:
    @settings(max_examples=25, deadline=None)
    @given(config=st.sampled_from(range(len(BATCH_CONFIGS))),
           rows=st.lists(st.integers(0, 5), min_size=1, max_size=6))
    def test_rows_do_not_depend_on_their_batch(self, config, rows):
        cfg = BATCH_CONFIGS[config]
        block = integrate(BATCH_OMEGA[rows], cfg, BATCH_INIT[rows])
        assert len(block.failures) == len(block.averager) == len(rows)
        peak = DomPolicy("sample_peak_detector", sample_time=30.0)

        def readouts(trace):
            return (dom(trace, DomPolicy()), dom(trace, peak), classify_lock(trace),
                    measure_lock_time(trace))

        block_values = list(zip(*readouts(block)))
        # a block records no states: its rows sum their final frequencies as they run
        assert block.states.shape == (len(rows), 0, cfg.n)
        for i, row in enumerate(rows):
            single = single_run(config, row)
            assert block.failures[i] is None
            assert np.array_equal(block.times, single.times)
            assert np.array_equal(block.averager[i], single.averager)
            assert np.abs(block.final_freq[i] - single.final_freq).max() <= 1e-12
            assert np.array_equal(block.final_freq[i], reversed_block(config).final_freq[5 - row])
            assert classify_lock(block)[i] == classify_lock(single)
            # the block's readouts give each row its lone run's values
            assert block_values[i] == readouts(single)

    @pytest.mark.parametrize("kw", [
        dict(stride=50),  # a smoothing window of one sample
        dict(t_end=5.0),  # the window spans the run, and the edge padding folds onto its ends
        dict(t_end=0.3, dt=0.1),  # 4 samples: the steps read span the whole run
        dict(stride=3, include_self_in_sum=False),
    ])
    def test_a_block_sums_its_lone_runs_final_freq(self, kw):
        cfg = OscillatorArrayConfig(**{"n": 5, "t_end": 60.0, **kw})
        block = integrate(BATCH_OMEGA[:3], cfg, BATCH_INIT[:3])
        for row in range(3):
            single = integrate(BATCH_OMEGA[row], cfg, BATCH_INIT[row])
            assert np.abs(block.final_freq[row] - single.final_freq).max() <= 1e-12
        with pytest.raises(InsufficientDataError, match="recorded none"):
            block.inst_freq

    @settings(max_examples=15, deadline=None)
    @given(size=st.integers(1, 6), data=st.data())
    def test_a_diverging_row_fails_alone(self, size, data):
        bad = data.draw(st.integers(0, size - 1))
        cfg = BATCH_CONFIGS[0]
        init = BATCH_INIT[:size].copy()
        init[bad] *= 12.0  # norm 12*sqrt(5), beyond the guard 10*sqrt(5)
        with pytest.raises(DivergenceError) as alone:
            integrate(BATCH_OMEGA[bad], cfg, init[bad])
        block = integrate(BATCH_OMEGA[:size], cfg, init)
        failure = block.failures[bad]
        assert isinstance(failure, DivergenceError)
        assert (failure.step, failure.norm) == (alone.value.step, alone.value.norm)
        for row in range(size):
            if row != bad:
                assert block.failures[row] is None
                assert np.array_equal(block.averager[row], single_run(0, row).averager)

    def test_one_length_n_init_starts_every_row(self):
        cfg = BATCH_CONFIGS[0]
        # the caller's memory layout does not reach the rows' bits either
        block = integrate(np.asfortranarray(BATCH_OMEGA[:3]), cfg, BATCH_INIT[4])
        for row in range(3):
            single = integrate(BATCH_OMEGA[row], cfg, BATCH_INIT[4])
            assert np.array_equal(block.averager[row], single.averager)

    def test_caps_the_values_a_block_records(self):
        # a row records its 3,502 averager samples at the default t_end, so
        # 4,800 rows record about 17e6 values; the block is rejected before
        # any of it is allocated
        cfg = OscillatorArrayConfig(n=25)
        with pytest.raises(ConfigurationError, match="4800 runs.*2\\*\\*24"):
            integrate(np.ones((4800, 25)), cfg, random_initial_state(25, 0))

    def test_a_block_whose_rows_all_fail_holds_zeros(self):
        # the rows fail at steps 14-16 of 350 and the loop stops at the last;
        # what it never reached must read zero, not what the allocator held
        cfg = OscillatorArrayConfig(n=4, rho=1e-3, epsilon=0.5, t_end=40.0)
        init = np.array([random_initial_state(4, seed) for seed in range(3)])
        for _ in range(50):  # leave freed, non-zero memory for the block to reuse
            np.full(10_000, 1e300 + 1e300j)
        block = integrate(np.ones((3, 4)), cfg, init)
        assert all(isinstance(failure, DivergenceError) for failure in block.failures)
        for row, failure in enumerate(block.failures):
            assert not block.averager[row, -(-failure.step // cfg.stride):].any()

    @pytest.mark.parametrize("omega, init", [
        (np.ones((2, 4)), np.ones(5)),
        (np.ones((2, 5)), np.ones((3, 5))),
        (np.ones((0, 5)), np.ones(5)),
        (np.ones((1, 2, 5)), np.ones(5)),
    ])
    def test_rejects_mismatched_shapes(self, omega, init):
        with pytest.raises(ConfigurationError):
            integrate(omega, BATCH_CONFIGS[0], init)


class TestSymmetries:
    def test_rotational_symmetry(self):
        cfg = OscillatorArrayConfig(n=3, t_end=50.0, epsilon=0.02)
        omega = np.array([0.95, 1.0, 1.05])
        init = random_initial_state(3, 11)
        phi = 1.2345
        a = integrate(omega, cfg, init)
        b = integrate(omega, cfg, init * np.exp(1j * phi))
        scale = np.abs(b.states).max()
        assert np.abs(b.states - a.states * np.exp(1j * phi)).max() / scale < 1e-9
        assert np.abs(b.envelope - a.envelope).max() < 1e-9
        assert np.abs(b.inst_freq - a.inst_freq).max() < 1e-9

    def test_frequency_shift_equivariance(self):
        delta = 0.3
        cfg = OscillatorArrayConfig(
            n=3, delta_omega=0.05, epsilon=0.02, dt=0.005, t_end=2.0
        )
        omega = np.array([0.95, 1.0, 1.05])
        init = random_initial_state(3, 5)
        a = integrate(omega, cfg, init)
        b = integrate(omega + delta, cfg, init)
        predicted = a.states * np.exp(1j * delta * a.times)[:, None]
        scale = np.abs(b.states).max()
        assert np.abs(b.states - predicted).max() / scale < 1e-9
        assert np.abs(b.envelope - a.envelope).max() / b.envelope.max() < 1e-9
        diff_a = a.phases[:, 1:] - a.phases[:, :1]
        diff_b = b.phases[:, 1:] - b.phases[:, :1]
        assert np.abs(diff_a - diff_b).max() < 1e-6

    def test_integrator_is_fourth_order(self):
        omega = np.array([1.0, 1.02])
        init = random_initial_state(2, 11)

        def end_state(dt):
            cfg = two_osc_cfg(t_end=20.0, dt=dt)
            return integrate(omega, cfg, init).states[-1]

        errors = {}
        for dt in (0.05, 0.025):
            errors[dt] = np.abs(end_state(dt) - end_state(dt / 8)).max()
        ratio = errors[0.05] / errors[0.025]
        assert 12.0 <= ratio <= 20.0


class TestRandomInitialState:
    def test_deterministic(self):
        assert np.array_equal(random_initial_state(5, 42), random_initial_state(5, 42))

    def test_seed_sensitivity(self):
        assert not np.array_equal(random_initial_state(5, 42), random_initial_state(5, 43))

    def test_amplitude_and_uniformity(self):
        state = random_initial_state(1000, 7)
        assert np.allclose(np.abs(state), 1.0, atol=1e-12)
        theta = np.mod(np.angle(state), 2.0 * math.pi)
        stderr = (2.0 * math.pi / math.sqrt(12.0)) / math.sqrt(1000.0)
        assert abs(theta.mean() - math.pi) < 3.0 * stderr

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            random_initial_state(0, 1)


class TestInstantaneousFrequency:
    def test_free_oscillator_recovers_omega(self):
        cfg = OscillatorArrayConfig(
            n=1, omega0=1.0, delta_omega=0.15, epsilon=0.0, t_end=100.0
        )
        trace = integrate(np.array([1.3]), cfg, random_initial_state(1, 3))
        freq = instantaneous_frequency(trace)
        tail = freq[freq.shape[0] // 2:, 0]
        assert np.all(np.abs(tail - 1.3) < 0.013)

    def test_frozen_trace_gives_zero(self):
        cfg = OscillatorArrayConfig(n=2, delta_omega=0.0, epsilon=0.0, dt=0.1, t_end=9.9)
        times = np.arange(100) * 0.1
        states = np.full((100, 2), 0.3 + 0.4j)
        averager = states.mean(axis=1)
        trace = SimulationTrace(times=times, states=states, config=cfg, averager=averager)
        freq = instantaneous_frequency(trace)
        assert np.abs(freq).max() < 1e-12

    def test_window_of_one_sample_is_the_raw_gradient(self):
        # at stride 50 and the default dt one sample spans about a period
        cfg = two_osc_cfg(stride=50)
        trace = integrate(np.array([0.98, 1.03]), cfg, random_initial_state(2, 2))
        assert round(2.0 * math.pi / (cfg.stride * cfg.dt)) == 1
        raw = np.gradient(trace.phases, trace.times, axis=0)
        assert np.array_equal(instantaneous_frequency(trace), raw)

    def test_two_locked_share_final_frequency(self):
        cfg = two_osc_cfg()
        trace = integrate(np.array([0.98, 1.02]), cfg, random_initial_state(2, 1))
        tail = max(1, trace.num_samples // 10)
        final = trace.inst_freq[-tail:].mean(axis=0)
        assert abs(final[1] - final[0]) < 0.1 * cfg.epsilon

    def test_final_freq_is_the_mean_over_the_final_tenth(self):
        cfg = two_osc_cfg(t_end=100.0)
        trace = integrate(np.array([0.98, 1.02]), cfg, random_initial_state(2, 1))
        tail = trace.num_samples // 10
        assert np.array_equal(trace.final_freq, trace.inst_freq[-tail:].mean(axis=0))

    def test_needs_three_samples(self):
        cfg = OscillatorArrayConfig(n=1, delta_omega=0.0, epsilon=0.0, dt=0.1, t_end=0.1)
        trace = integrate(np.array([1.0]), cfg, np.array([1.0 + 0j]))
        assert trace.num_samples == 2
        with pytest.raises(InsufficientDataError):
            instantaneous_frequency(trace)


class TestPeakDetector:
    def test_no_decay_is_running_max(self):
        env = np.array([0.1, 0.5, 0.2, 0.8, 0.3])
        out = peak_detector(env, tau_decay=1e12, dt=0.1)
        assert np.allclose(out, np.maximum.accumulate(env))

    def test_constant_input(self):
        env = np.full(50, 0.7)
        assert np.allclose(peak_detector(env, 5.0, 0.1), 0.7)

    def test_pulse_decays_exponentially(self):
        dt, tau = 0.1, 3.0
        env = np.zeros(100)
        env[:20] = 1.0
        out = peak_detector(env, tau, dt)
        t_after = dt * np.arange(80)
        assert np.allclose(out[20:], np.exp(-(t_after + dt) / tau))

    def test_never_below_input(self):
        rng = np.random.default_rng(0)
        env = rng.uniform(0, 1, 200)
        out = peak_detector(env, 2.0, 0.05)
        assert (out >= env - 1e-15).all()

    def test_empty_envelope(self):
        with pytest.raises(InsufficientDataError):
            peak_detector(np.array([]), tau_decay=1.0, dt=0.1)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            peak_detector(np.ones(3), tau_decay=0.0, dt=0.1)
        with pytest.raises(ConfigurationError):
            peak_detector(np.ones(3), tau_decay=1.0, dt=0.0)


class TestSweepLocking:
    def test_boundary_behavior(self):
        points = sweep_locking(0.05, np.array([0.0, 0.15]), t_end=600.0)
        assert points[0].locked and points[0].detuning == 0.0
        assert not points[1].locked
        assert points[0].final_freq_gap < 1e-6
        assert points[1].final_freq_gap > 0.05
        assert points[0].beat_amplitude < 0.01
        assert points[1].beat_amplitude > 0.1

    def test_rejects_bad_grid(self):
        with pytest.raises(ConfigurationError):
            sweep_locking(0.05, np.array([]))
        with pytest.raises(ConfigurationError):
            sweep_locking(0.05, np.array([-0.1]))
        with pytest.raises(ConfigurationError):
            sweep_locking(0.0, np.array([0.1]))

    @pytest.mark.parametrize("gap_tol", [math.nan, math.inf])
    def test_rejects_non_finite_gap_tol(self, gap_tol):
        with pytest.raises(ConfigurationError, match="gap_tol"):
            sweep_locking(0.05, np.array([0.1]), gap_tol=gap_tol)
        with pytest.raises(ConfigurationError, match="gap_tol"):
            sweep_locking(gap_tol, np.array([0.1]))

    def test_default_dt_covers_the_fastest_grid_frequency(self):
        grid = np.array([0.0, 0.06, 0.1])
        explicit = sweep_locking(0.05, grid, t_end=60.0, dt=default_timestep(1.0 + 0.5 * 0.1))
        assert sweep_locking(0.05, grid, t_end=60.0) == explicit

    def test_points_do_not_depend_on_how_the_grid_is_batched(self):
        def sweep(detunings):
            # a fixed dt: the default follows the grid's largest detuning
            return sweep_locking(0.05, detunings, t_end=60.0, dt=0.1)

        grid = np.linspace(0.0, 0.15, 7)
        points = sweep(grid)
        assert 0 < sum(p.locked for p in points) < grid.size
        for split in range(1, grid.size):
            assert sweep(grid[:split]) + sweep(grid[split:]) == points
        assert sweep(grid[::-1])[::-1] == points

    def test_block_cap_is_checked_before_the_grid_is_integrated(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(oscconv.inference, "integrate", counting)
        with pytest.raises(ConfigurationError, match="5000 runs"):
            sweep_locking(0.05, np.linspace(0.0, 0.2, 5000))
        assert calls == []

    def test_divergence_is_the_first_failing_detunings(self):
        # every detuning diverges, the later ones at earlier steps; the sweep
        # reports the first in grid order, as its own run would
        grid = np.linspace(0.0, 0.2, 6)
        with pytest.raises(DivergenceError) as swept:
            sweep_locking(0.5, grid, rho=1e-3, t_end=50.0)
        cfg = OscillatorArrayConfig(n=2, rho=1e-3, delta_omega=0.05, epsilon=0.5, t_end=50.0)
        with pytest.raises(DivergenceError) as first:
            integrate(np.array([1.0, 1.0]), cfg, random_initial_state(2, 0))
        assert (swept.value.step, swept.value.norm) == (first.value.step, first.value.norm)

    # Adler (1946): two oscillators coupled at epsilon lock while their
    # detuning stays below 2*epsilon
    @settings(max_examples=6, deadline=None)
    @given(epsilon=st.floats(0.01, 0.08), seed=st.integers(0, 20))
    def test_locking_boundary_is_adlers(self, epsilon, seed):
        points = sweep_locking(epsilon, np.linspace(epsilon, 3.0 * epsilon, 41), seed=seed)
        locked = [p.locked for p in points]
        assert locked[0]
        assert locked == sorted(locked, reverse=True)  # the locked points are a prefix
        boundary = max(p.detuning for p in points if p.locked)
        assert abs(boundary / (2.0 * epsilon) - 1.0) <= 0.05
