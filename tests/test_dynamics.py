import math

import numpy as np
import pytest

from oscconv import (
    ConfigurationError,
    DivergenceError,
    InsufficientDataError,
    NumericError,
    OscillatorArrayConfig,
    SimulationTrace,
    default_coupling,
    default_timestep,
    derivative,
    instantaneous_frequency,
    integrate,
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

    def test_uniform_sampling_with_stride(self):
        cfg = two_osc_cfg(t_end=50.0, stride=4)
        trace = integrate(np.array([1.0, 1.01]), cfg, random_initial_state(2, 5))
        spacing = np.diff(trace.times)
        assert np.allclose(spacing, cfg.stride * cfg.dt)
        assert trace.num_samples == trace.states.shape[0]

    def test_default_init_uses_config_seed(self):
        cfg = two_osc_cfg(t_end=10.0, seed=17)
        a = integrate(np.array([1.0, 1.0]), cfg)
        b = integrate(np.array([1.0, 1.0]), cfg, random_initial_state(2, 17))
        assert np.array_equal(a.states, b.states)

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
        with pytest.raises(ConfigurationError):
            random_initial_state(3, 1, amplitude=0.0)


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
        trace = SimulationTrace(times=times, states=states, config=cfg)
        freq = instantaneous_frequency(trace)
        assert np.abs(freq).max() < 1e-12

    def test_window_of_one_sample_is_the_raw_gradient(self):
        # at stride 50 and the default dt one sample spans about a period
        cfg = two_osc_cfg(stride=50)
        trace = integrate(np.array([0.98, 1.03]), cfg, random_initial_state(2, 2))
        assert round(2.0 * math.pi / trace.dt_sample) == 1
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
