import dataclasses
import inspect
import math
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oscconv.inference
from oscconv import (
    ConfigurationError,
    DivergenceError,
    NumericError,
    OscillatorArrayConfig,
    SimulationTrace,
    classify_lock,
    derivative,
    dom,
    edge_fragment,
    fsk_encode,
    gabor_filter,
    integrate,
    measure_lock_time,
    peak_detector,
    random_initial_state,
    sweep_locking,
)
from oscconv.dynamics import (
    PEAK_DECAY_PERIODS,
    _check_accuracy,
    _check_block,
    instantaneous_frequency,
    sample_times,
)
from reference import history_trace, rk4_history


def two_osc_cfg(**kw):
    base = dict(n=2, delta_omega=0.05, epsilon=0.05, t_end=400.0)
    base.update(kw)
    return OscillatorArrayConfig(**base)


def unwrapped_phases(states):
    """Per-oscillator unwrapped phase arg(z_i) of a state history, samples on axis -2."""
    return np.unwrap(np.angle(states), axis=-2)


class TestConfig:
    def test_defaults(self):
        cfg = OscillatorArrayConfig(n=25)
        assert cfg.epsilon == 3.0 * 0.05 / 25
        assert cfg.dt == 2.0 * math.pi / (50.0 * (1.0 + 2 * 0.05))
        assert cfg.omega_max == pytest.approx(1.1)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=0),
            dict(n=2, rho=0.0),
            dict(n=2, rho=-1.0),
            # 50 * omega_max overflows, and the default dt would be 0
            dict(n=2, delta_omega=2e306, epsilon=0.1),
            dict(n=2, delta_omega=-0.1),
            dict(n=2, epsilon=-0.01),
            dict(n=2, dt=-0.1),
            dict(n=2, t_end=0.0, dt=0.1),
            # n counts oscillators: a float or a string is no count, even 25.0
            dict(n=2.5),
            dict(n=25.0),
            dict(n="3"),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigurationError):
            OscillatorArrayConfig(**kw)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["rho", "delta_omega", "epsilon", "dt", "t_end"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            OscillatorArrayConfig(n=2, **{name: value})

    def test_the_carrier_is_a_constant_and_not_a_setting(self):
        names = [f.name for f in dataclasses.fields(OscillatorArrayConfig)]
        assert names == ["n", "rho", "delta_omega", "epsilon", "dt", "t_end"]
        assert OscillatorArrayConfig(n=25).omega0 == OscillatorArrayConfig.omega0 == 1.0
        with pytest.raises(TypeError, match="omega0"):
            OscillatorArrayConfig(n=2, omega0=1.2)

    def test_default_coupling_rejects_a_delta_omega_whose_coupling_overflows(self):
        # 3 * delta_omega overflows past about 6e307; the error names delta_omega,
        # not the epsilon it defaults
        for delta_omega in (6e307, 1e308):
            message = re.escape(f"delta_omega={delta_omega:g} makes")
            with pytest.raises(ConfigurationError, match=f"^{message}"):
                OscillatorArrayConfig(n=25, delta_omega=delta_omega)

    # 50 * omega_max, omega_max = 1 + 2*delta_omega, overflows past about 1.8e306:
    # the default dt, 2*pi over it, would be 0, and the accuracy guard would admit
    # no given dt above 1e-306, so the config refuses delta_omega itself either way
    @pytest.mark.parametrize("kw", [
        dict(), dict(epsilon=0.1), dict(epsilon=0.1, dt=0.1), dict(dt=1e-310, t_end=3e-310),
    ], ids=["defaults", "epsilon", "epsilon-and-dt", "a-dt-below-the-guard"])
    @pytest.mark.parametrize("delta_omega", [1.8e306, 1e308])
    def test_a_delta_omega_whose_step_overflows(self, kw, delta_omega):
        message = re.escape(f"delta_omega={delta_omega:g} makes 50*(1 + 2*delta_omega) overflow; "
                            f"set delta_omega below 1e306")
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            OscillatorArrayConfig(n=25, delta_omega=delta_omega, **kw)
        # the bound the message states is one the config accepts
        cfg = OscillatorArrayConfig(n=25, delta_omega=1e306, dt=1e-307, t_end=3e-307)
        assert cfg.epsilon == 3.0 * 1e306 / 25
        assert OscillatorArrayConfig(n=25, delta_omega=1e306, t_end=3e-306).dt > 0

    # the derived values are the closed forms, bit for bit, and the default dt
    # passes the accuracy guard that integrate applies to every FSK encoding
    @given(n=st.integers(1, 1000),
           delta_omega=st.one_of(st.floats(0.0, 1.0), st.floats(1e-320, 1e306)),
           epsilon=st.none() | st.floats(0.0, 10.0),
           k=st.floats(0.0, 1.0), phase=st.floats(-math.pi, math.pi))
    @example(n=1, delta_omega=0.0, epsilon=None, k=0.0, phase=0.0)
    @example(n=25, delta_omega=1e306, epsilon=None, k=0.5, phase=math.pi)
    @settings(max_examples=300, deadline=None)
    def test_derived_values_are_the_closed_forms(self, n, delta_omega, epsilon, k, phase):
        # t_end spans about 64 default steps, inside the recorded-value cap at any delta_omega
        cfg = OscillatorArrayConfig(n=n, delta_omega=delta_omega, epsilon=epsilon,
                                    t_end=8.0 / (1.0 + 2.0 * delta_omega))
        assert cfg.epsilon == (3.0 * delta_omega / n if epsilon is None else epsilon)
        assert cfg.dt == 2.0 * math.pi / (50.0 * cfg.omega_max)
        # encodings at both extremes of F - G, and of a grating filter on the edge fragment
        fragment = edge_fragment()
        for filt in (gabor_filter(5, 0.0, k, phase), gabor_filter(5, 90.0, k, phase)):
            for frag in (fragment, dataclasses.replace(fragment, values=-filt.values)):
                omega = fsk_encode(frag, filt, cfg)
                _check_accuracy(cfg.dt, max(np.abs(omega).max(), cfg.omega_max))

    # final_freq reads 3 samples, so a run takes 2 steps or more
    def test_a_run_takes_at_least_two_steps(self):
        assert OscillatorArrayConfig(n=2, t_end=0.2, dt=0.1).num_samples == 3
        # 0.15/0.1 is 1.4999999999999998, which rounds to 1 step
        for t_end in (0.1, 0.15):
            with pytest.raises(ConfigurationError,
                               match=f"^t_end={t_end:g} and dt=0.1 make 1 step; a run needs 2"):
                OscillatorArrayConfig(n=2, t_end=t_end, dt=0.1)

    def test_caps_recorded_values(self):
        with pytest.raises(ConfigurationError, match="t_end.*dt.*raise dt or lower t_end$"):
            OscillatorArrayConfig(n=25, dt=1e-5)
        # t_end/dt overflows a float: rejected, not an OverflowError
        with pytest.raises(ConfigurationError, match="2\\*\\*24"):
            OscillatorArrayConfig(n=2, dt=1e-10, t_end=1e300)
        # exactly 2**24 samples of one oscillator fit, one more does not
        cfg = OscillatorArrayConfig(n=1, delta_omega=0.0, dt=0.125, t_end=(2**24 - 1) * 0.125)
        assert cfg.num_samples == 2**24
        with pytest.raises(ConfigurationError):
            OscillatorArrayConfig(n=1, delta_omega=0.0, dt=0.125, t_end=2**24 * 0.125)
        # a run records its averager, not its oscillators' states: a wide
        # config is held to its samples, not to n times them
        cfg = OscillatorArrayConfig(n=25, dt=4e-4)
        assert cfg.num_samples <= 2**24 < cfg.n * cfg.num_samples

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
        trace = history_trace(np.array([1.0, 1.0]), cfg, random_initial_state(2, 3))
        tail = trace.num_samples // 10
        gap = np.diff(unwrapped_phases(trace.states)[-tail:], axis=1).ravel()
        assert gap.std() < 1e-9
        freq = instantaneous_frequency(trace)[-tail:].mean(axis=0)
        assert abs(freq[1] - freq[0]) < 1e-9

    def test_locking_inside_and_outside(self):
        eps = 0.05
        cfg = two_osc_cfg(t_end=600.0)
        # row 0 inside the locking range, row 1 outside
        both = history_trace(
            np.array([[1.0 - 0.25 * eps, 1.0 + 0.25 * eps], [1.0 - 1.5 * eps, 1.0 + 1.5 * eps]]),
            cfg, random_initial_state(2, 0),
        )
        tail = both.num_samples // 10
        final = instantaneous_frequency(both)[:, -tail:].mean(axis=1)
        gap_in, gap_out = np.abs(final[:, 1] - final[:, 0])
        assert gap_in < 0.1 * eps
        assert gap_out > eps
        # locked: the phase difference stops growing; unlocked: it keeps
        # accumulating at roughly the pulled beat frequency
        half = both.num_samples // 2
        phases = unwrapped_phases(both.states)
        inside, outside = abs((phases[:, -1, 1] - phases[:, -1, 0])
                              - (phases[:, half, 1] - phases[:, half, 0]))
        assert inside < 0.1
        assert outside > 4 * math.pi

    def test_divergence_guard_reports_step(self):
        # mean-field gain far above the nonlinear damping pushes the
        # coherent amplitude past 10*sqrt(n)
        cfg = OscillatorArrayConfig(
            n=5, rho=1e-3, delta_omega=0.0, epsilon=0.5, t_end=100.0, dt=0.1
        )
        with pytest.raises(DivergenceError) as err:
            integrate(np.ones(5), cfg, random_initial_state(5, 1))
        assert err.value.step >= 1

    def test_divergence_guard_matches_a_textbook_rk4(self):
        # the guard compares squared norms; a textbook RK4 of the explicit field,
        # stopped where sqrt(sum |z|^2) first exceeds 10*sqrt(n), gives the same
        # step and norm, alone and as one row of a block whose other rows,
        # started near zero, stay inside the guard for the whole run
        cfg = OscillatorArrayConfig(n=4, rho=1e-3, epsilon=0.5, dt=0.1, t_end=4.0)
        omega = np.array([0.95, 1.0, 1.02, 1.08])
        z = random_initial_state(4, 1)
        guard = 10.0 * math.sqrt(cfg.n)

        def field(x):
            return (cfg.rho + 1j * omega) * x - cfg.rho * x * np.abs(x) ** 2 + cfg.epsilon * x.sum()

        dt, init = cfg.dt, z
        for step in range(1, cfg.n_steps + 1):
            k1 = field(z)
            k2 = field(z + dt / 2 * k1)
            k3 = field(z + dt / 2 * k2)
            k4 = field(z + dt * k3)
            z = z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            norm = math.sqrt(np.sum(np.abs(z) ** 2))
            assert abs(norm / guard - 1.0) > 1e-9  # rounding cannot move the step
            if norm > guard:
                break
        assert 1 < step < cfg.n_steps
        with pytest.raises(DivergenceError) as alone:
            integrate(omega, cfg, init)
        block = integrate(
            np.array([omega[::-1], omega, omega]), cfg,
            np.array([1e-3 * random_initial_state(4, 2), init, 1e-3 * random_initial_state(4, 3)]),
        )
        assert block.failures[0] is None and block.failures[2] is None
        for failure in (alone.value, block.failures[1]):
            assert failure.step == step
            assert failure.norm == pytest.approx(norm, rel=1e-12)

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

    # n=25: past the 8 values at which numpy sums pairwise
    @pytest.mark.parametrize("n", [3, 25])
    def test_one_step_is_rk4_over_derivative(self, n):
        # integrate and derivative evaluate one vector field: each step of the
        # shortest run, 2 steps, is one RK4 step over derivative, and the row's
        # steps are the same in a block
        dt = 0.1
        cfg = OscillatorArrayConfig(n=n, epsilon=0.02, dt=dt, t_end=2 * dt)
        omega = np.resize([0.95, 1.0, 1.08], n)
        z = expected = random_initial_state(n, 4)
        for _ in range(2):
            k1 = derivative(expected, omega, cfg)
            k2 = derivative(expected + 0.5 * dt * k1, omega, cfg)
            k3 = derivative(expected + 0.5 * dt * k2, omega, cfg)
            k4 = derivative(expected + dt * k3, omega, cfg)
            expected = expected + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        trace = integrate(omega, cfg, z)
        assert trace.num_samples == 3
        assert np.array_equal(trace.states[-1], expected)
        block = integrate(np.array([omega, omega[::-1]]), cfg, np.array([z, z[::-1]]))
        assert np.array_equal(block.averager[0], trace.averager)

    # rk4_history, the state history the tests read, ends where integrate's
    # runs and blocks end, bit for bit
    @pytest.mark.parametrize("dt", [None, 0.05], ids=["default-dt", "dt-0.05"])
    @pytest.mark.parametrize("n", [2, 5, 25])
    def test_rk4_history_ends_at_the_final_state(self, n, dt):
        cfg = OscillatorArrayConfig(n=n, t_end=60.0, dt=dt)
        omega = 1.0 + 0.05 * np.random.default_rng(n).uniform(-2.0, 2.0, (3, n))
        init = np.array([random_initial_state(n, seed) for seed in range(3)])
        block = rk4_history(omega, cfg, init)
        assert block.shape == (3, cfg.num_samples, n)
        assert np.array_equal(block[:, -1:], integrate(omega, cfg, init).states)
        lone = rk4_history(omega[0], cfg, init[0])
        assert lone.shape == (cfg.num_samples, n)
        assert np.array_equal(lone[-1:], integrate(omega[0], cfg, init[0]).states)

    def test_leaves_callers_arrays_writeable(self):
        omega = np.array([1.0, 1.02])
        init = random_initial_state(2, 9)
        integrate(omega, two_osc_cfg(t_end=5.0), init)
        omega[0] = 1.01
        init[0] = 1.0

    @pytest.mark.parametrize("rows", [None, 1, 3], ids=["run", "block-of-1", "block-of-3"])
    def test_shares_no_memory_with_its_inputs_or_another_trace(self, rows):
        # z is stepped in place and the stage buffers are reused within a call
        cfg = two_osc_cfg(t_end=20.0)
        omega, init = np.array([1.0, 1.02]), random_initial_state(2, 9)
        if rows:
            omega, init = np.tile(omega, (rows, 1)), np.tile(init, (rows, 1))
        given = omega.copy(), init.copy()
        a = integrate(omega, cfg, init)
        b = integrate(omega, cfg, init)
        assert np.array_equal(omega, given[0]) and np.array_equal(init, given[1])
        for name in ("times", "states", "averager", "final_freq"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
            for other in (omega, init, b.times, b.states, b.averager, b.final_freq):
                assert not np.shares_memory(getattr(a, name), other)

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

    def test_records_the_initial_state_and_every_step(self):
        cfg = two_osc_cfg(t_end=50.0)
        trace = integrate(np.array([1.0, 1.01]), cfg, random_initial_state(2, 5))
        assert trace.num_samples == trace.averager.shape[0] == cfg.n_steps + 1
        assert np.allclose(np.diff(trace.times), cfg.dt)
        # of the states, the run keeps its final one
        assert trace.states.shape == (1, cfg.n)

    def test_envelope_bounds(self):
        # triangle inequality and the coherent-gain amplitude bound
        cfg = OscillatorArrayConfig(n=9, t_end=100.0, epsilon=0.02)
        omega = np.tile(1.0 + 0.05 * np.linspace(-2, 2, 9), (5, 1))
        init = np.array([random_initial_state(9, seed) for seed in range(5)])
        block = integrate(omega, cfg, init)
        max_amp = np.abs(rk4_history(omega, cfg, init)).max(axis=-1)
        assert max_amp.shape == block.envelope.shape
        assert (block.envelope <= max_amp + 1e-12).all()
        bound = math.sqrt(1.0 + cfg.epsilon * cfg.n / cfg.rho)
        assert block.envelope.max() <= bound + 1e-9


# Rows for the batch tests: five oscillators each, frequencies inside the
# FSK range, so some rows lock and some do not.
BATCH_OMEGA = 1.0 + 0.05 * np.random.default_rng(11).uniform(-2.0, 2.0, (6, 5))
BATCH_INIT = np.array([random_initial_state(5, seed) for seed in range(6)])
BATCH_CONFIGS = (
    OscillatorArrayConfig(n=5, t_end=60.0),
    OscillatorArrayConfig(n=5, t_end=60.0, dt=0.05),
)


@lru_cache(maxsize=None)
def single_run(config: int, row: int) -> SimulationTrace:
    return integrate(BATCH_OMEGA[row], BATCH_CONFIGS[config], BATCH_INIT[row])


@lru_cache(maxsize=None)
def reversed_block(config: int) -> SimulationTrace:
    """Every batch row in one block, last row first."""
    return integrate(BATCH_OMEGA[::-1], BATCH_CONFIGS[config], BATCH_INIT[::-1])


# Rows of 25 oscillators, past the 8 values at which numpy's pairwise
# summation starts: a lone row must sum its oscillators in the order a row
# of a wider block does. Per case: the config, the initial states and which
# rows diverge.
WIDE_OMEGA = 1.0 + 0.05 * np.random.default_rng(12).uniform(-2.0, 2.0, (4, 25))
WIDE_INIT = np.array([random_initial_state(25, seed) for seed in range(4)])
WIDE_CASES = (
    (OscillatorArrayConfig(n=25, t_end=40.0), WIDE_INIT, [False] * 4),
    # rows 1 and 3 diverge, at steps 42 and 47; rows 0 and 2, started near zero, do not
    (OscillatorArrayConfig(n=25, rho=1e-3, epsilon=0.04, dt=0.1, t_end=8.0),
     WIDE_INIT * [[1e-3], [1.0], [1e-3], [1.0]], [False, True, False, True]),
)


class TestBatchedIntegrate:
    @pytest.mark.parametrize("case", range(len(WIDE_CASES)))
    def test_a_row_of_25_is_the_same_alone_and_in_any_block(self, case):
        cfg, init, failing = WIDE_CASES[case]
        block = integrate(WIDE_OMEGA, cfg, init)
        assert [failure is not None for failure in block.failures] == failing
        for row in range(len(WIDE_OMEGA)):
            one = integrate(WIDE_OMEGA[row:row + 1], cfg, init[row:row + 1])
            traces = (one, block.rows(slice(row, row + 1)))
            assert np.array_equal(one.averager[0], block.averager[row])
            if failing[row]:
                with pytest.raises(DivergenceError) as alone:
                    integrate(WIDE_OMEGA[row], cfg, init[row])
                for trace in traces:
                    failure = trace.failures[0]
                    assert (failure.step, failure.norm) == (alone.value.step, alone.value.norm)
                continue
            alone = integrate(WIDE_OMEGA[row], cfg, init[row])
            for trace in traces:
                assert trace.failures == (None,)
                assert np.array_equal(trace.averager[0], alone.averager)
                assert np.array_equal(trace.final_freq[0], alone.final_freq)
                assert dom(trace) == [dom(alone)]

    @settings(max_examples=25, deadline=None)
    @given(config=st.sampled_from(range(len(BATCH_CONFIGS))),
           rows=st.lists(st.integers(0, 5), min_size=1, max_size=6))
    def test_rows_do_not_depend_on_their_batch(self, config, rows):
        cfg = BATCH_CONFIGS[config]
        block = integrate(BATCH_OMEGA[rows], cfg, BATCH_INIT[rows])
        assert len(block.failures) == len(block.averager) == len(rows)

        def readouts(trace):
            return dom(trace), classify_lock(trace), measure_lock_time(trace)

        block_values = list(zip(*readouts(block)))
        # the trace dump's peak-detector column, read off the block at once
        block_peaks = peak_detector(block.envelope, cfg)
        # a block keeps each row's final state: its rows sum their final
        # frequencies as they run
        assert block.states.shape == (len(rows), 1, cfg.n)
        for i, row in enumerate(rows):
            single = single_run(config, row)
            assert block.failures[i] is None
            assert np.array_equal(block.times, single.times)
            assert np.array_equal(block.states[i], single.states)
            assert np.array_equal(block.averager[i], single.averager)
            assert np.array_equal(block.final_freq[i], single.final_freq)
            assert np.array_equal(block.final_freq[i], reversed_block(config).final_freq[5 - row])
            assert classify_lock(block)[i] == classify_lock(single)
            # the block's readouts give each row its lone run's values
            assert block_values[i] == readouts(single)
            assert np.array_equal(block_peaks[i], peak_detector(single.envelope, cfg))

    @pytest.mark.parametrize("kw", [
        dict(t_end=150.0),  # the final tenth, 131 samples, is longer than the 55-sample window
        dict(t_end=5.0),  # the window spans the run, and the edge padding folds onto its ends
        dict(t_end=0.3, dt=0.1),  # 4 samples: the steps read span the whole run
        dict(dt=0.05),  # an even window, of 126 samples
        # 3 samples: the first phase step reads the initial state
        dict(t_end=0.2, dt=0.1),
        dict(t_end=0.4, dt=0.2),  # and at a step near the accuracy guard
    ])
    def test_a_block_sums_its_lone_runs_final_freq(self, kw):
        cfg = OscillatorArrayConfig(**{"n": 5, "t_end": 60.0, **kw})
        block = integrate(BATCH_OMEGA[:3], cfg, BATCH_INIT[:3])
        tail = max(1, block.num_samples // 10)
        history = history_trace(BATCH_OMEGA[:3], cfg, BATCH_INIT[:3])
        reference = instantaneous_frequency(history)[:, -tail:].mean(axis=1)
        for row in range(3):
            single = integrate(BATCH_OMEGA[row], cfg, BATCH_INIT[row])
            assert np.array_equal(block.final_freq[row], single.final_freq)
            assert np.abs(single.final_freq - reference[row]).max() <= 1e-12
        with pytest.raises(ConfigurationError, match="integrate keeps only final states$"):
            instantaneous_frequency(block)

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

    def test_rows_past_the_guards_first_tier_run_on_as_alone(self):
        # the guard's first tier passes a step whose every |z_i|**2 is at most
        # 100*n / (2n) = 50; eps*n/rho = 62.5 settles each near 63.4, so from
        # step 36 on every step takes the exact check of the column sums,
        # which stay near 1,585, under the guard's 2,500
        cfg = OscillatorArrayConfig(n=25, rho=0.02, epsilon=0.05, t_end=20.0)
        block = integrate(WIDE_OMEGA, cfg, WIDE_INIT)
        assert block.failures == (None,) * len(WIDE_OMEGA)
        moduli2 = np.abs(rk4_history(WIDE_OMEGA, cfg, WIDE_INIT)) ** 2
        assert moduli2.shape[1] == cfg.num_samples
        assert (moduli2[:, 36:].max(axis=-1) > 50.0).all()
        assert moduli2.sum(axis=-1).max() < 1600.0
        for row in range(len(WIDE_OMEGA)):
            alone = integrate(WIDE_OMEGA[row], cfg, WIDE_INIT[row])
            assert np.array_equal(block.averager[row], alone.averager)
            assert np.array_equal(block.final_freq[row], alone.final_freq)

    def test_one_oscillator_past_100_does_not_fail_its_row(self):
        # the guard bounds the column's squared norm, 100*n = 400, not any one
        # |z_i|**2: oscillator 0 holds about 110 for the whole run
        cfg = OscillatorArrayConfig(n=4, rho=1e-6, epsilon=1e-3, t_end=20.0)
        omega = np.array([0.95, 1.0, 1.02, 1.08])
        init = random_initial_state(4, 1) * [10.5, 1.0, 1.0, 1.0]
        alone = integrate(omega, cfg, init)
        moduli2 = np.abs(rk4_history(omega, cfg, init)) ** 2
        assert moduli2.shape[0] == cfg.num_samples
        assert moduli2[:, 0].min() > 110.0 and moduli2.sum(axis=1).max() < 120.0
        block = integrate(np.array([omega, omega[::-1]]), cfg, np.array([init, init[::-1]]))
        assert block.failures == (None, None)
        assert np.array_equal(block.averager[0], alone.averager)

    def test_rows_of_a_lone_run_is_rejected(self):
        # a lone run has no row axis: its first two samples are no rows
        with pytest.raises(ConfigurationError, match="^rows\\(\\) reads a block of runs"):
            single_run(0, 0).rows(slice(0, 2))

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
        # at 4,096 samples a run, 4,096 rows record exactly 2**24 values and fit
        cfg = OscillatorArrayConfig(n=1, delta_omega=0.0, dt=0.125, t_end=4095 * 0.125)
        assert cfg.num_samples == 2**12
        _check_block(2**12, cfg)
        message = re.escape("4097 runs would record 16781312 values, more than 2**24; "
                            "use fewer runs, raise dt or lower t_end")
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            _check_block(2**12 + 1, cfg)

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
            assert not block.averager[row, failure.step:].any()

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
        omega = np.tile([0.95, 1.0, 1.05], (2, 1))
        phi = 1.2345
        # row 1 starts at row 0's state turned by phi
        init = random_initial_state(3, 11) * np.array([[1.0], [np.exp(1j * phi)]])
        block = integrate(omega, cfg, init)
        history = history_trace(omega, cfg, init)
        a, b = history.states
        scale = np.abs(b).max()
        assert np.abs(b - a * np.exp(1j * phi)).max() / scale < 1e-9
        assert np.abs(block.envelope[1] - block.envelope[0]).max() < 1e-9
        freq_a, freq_b = instantaneous_frequency(history)
        assert np.abs(freq_b - freq_a).max() < 1e-9

    def test_frequency_shift_equivariance(self):
        delta = 0.3
        cfg = OscillatorArrayConfig(
            n=3, delta_omega=0.05, epsilon=0.02, dt=0.005, t_end=2.0
        )
        # row 1 runs row 0's frequencies shifted by delta
        omega = np.array([0.95, 1.0, 1.05]) + np.array([[0.0], [delta]])
        init = random_initial_state(3, 5)
        block = integrate(omega, cfg, init)
        a, b = rk4_history(omega, cfg, init)
        predicted = a * np.exp(1j * delta * block.times)[:, None]
        scale = np.abs(b).max()
        assert np.abs(b - predicted).max() / scale < 1e-9
        envelope_a, envelope_b = block.envelope
        assert np.abs(envelope_b - envelope_a).max() / envelope_b.max() < 1e-9
        phases_a, phases_b = unwrapped_phases(a), unwrapped_phases(b)
        diff_a = phases_a[:, 1:] - phases_a[:, :1]
        diff_b = phases_b[:, 1:] - phases_b[:, :1]
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

    @pytest.mark.parametrize("seed", [-1, -(2**64), 0.5, 1.0, np.float64(2.0), "3", None])
    def test_rejects_a_seed_that_is_not_a_natural(self, seed):
        message = f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ConfigurationError, match=message):
            random_initial_state(3, seed)

    def test_numpy_integer_seeds_draw_as_their_ints(self):
        for seed in (np.int64(7), np.uint8(200), np.uint64(2**64 - 1)):
            expected = random_initial_state(4, int(seed))
            assert random_initial_state(4, seed).tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**130 - 1), n=st.integers(1, 64))
    @example(seed=0, n=1)
    @example(seed=2**32 - 1, n=3)
    @example(seed=2**32, n=3)
    @example(seed=2**128 - 1, n=64)  # four seed words, the whole pool
    @example(seed=2**128, n=2)  # five: a word past the pool
    def test_is_numpys_pcg64_stream(self, seed, n):
        theta = np.random.Generator(np.random.PCG64(seed)).uniform(0.0, 2.0 * math.pi, n)
        assert random_initial_state(n, seed).tobytes() == np.exp(1j * theta).tobytes()

    # Frozen phases: these hold if a numpy release changes its own stream.
    @pytest.mark.parametrize("seed, theta", [
        (0, 4.002148315014479),
        (2**32, 5.590393700586498),
        (2**64 + 3, 4.551468373893655),
    ])
    def test_pinned_first_phase(self, seed, theta):
        assert random_initial_state(1, seed).tobytes() == np.exp(1j * np.array([theta])).tobytes()


class TestInstantaneousFrequency:
    def test_free_oscillator_recovers_omega(self):
        cfg = OscillatorArrayConfig(n=1, delta_omega=0.15, epsilon=0.0, t_end=100.0)
        trace = history_trace(np.array([1.3]), cfg, random_initial_state(1, 3))
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

    def test_two_locked_share_final_frequency(self):
        cfg = two_osc_cfg()
        trace = history_trace(np.array([0.98, 1.02]), cfg, random_initial_state(2, 1))
        tail = max(1, trace.num_samples // 10)
        final = instantaneous_frequency(trace)[-tail:].mean(axis=0)
        assert abs(final[1] - final[0]) < 0.1 * cfg.epsilon

    def test_final_freq_is_the_mean_over_the_final_tenth(self):
        cfg = two_osc_cfg(t_end=100.0)
        omega, init = np.array([0.98, 1.02]), random_initial_state(2, 1)
        trace = integrate(omega, cfg, init)
        tail = trace.num_samples // 10
        # integrate sums the phase steps that the reference unwraps, differentiates
        # and smooths: the two agree to rounding
        reference = instantaneous_frequency(history_trace(omega, cfg, init))[-tail:].mean(axis=0)
        assert np.abs(trace.final_freq - reference).max() <= 1e-12

    # one period of omega0 is 55 samples at the default dt; a shorter run
    # smooths each sample over as many samples as the run has
    @pytest.mark.parametrize("t_end", [0.4, 1.0, 3.0, 6.0])
    def test_final_freq_of_a_run_shorter_than_a_period_smooths_over_the_run(self, t_end):
        cfg = two_osc_cfg(t_end=t_end)
        omega, init = np.array([0.98, 1.02]), random_initial_state(2, 1)
        trace = integrate(omega, cfg, init)
        num = trace.num_samples
        assert num < 2.0 * math.pi / cfg.dt
        gradient = np.gradient(unwrapped_phases(rk4_history(omega, cfg, init)), trace.times, axis=0)
        # sample k averages samples k - num//2 + [0, num), each clamped into the run
        window = np.clip(np.arange(num)[:, None] + np.arange(num) - num // 2, 0, num - 1)
        reference = gradient[window].mean(axis=1)[-max(1, num // 10):].mean(axis=0)
        assert np.abs(trace.final_freq - reference).max() <= 1e-12

    # a free oscillator on its limit cycle turns dt*omega per step, at most 2*pi/25
    # inside the accuracy guard, which bounds dt by the larger of omega and the
    # carrier 1: far below the half turn at which a phase step wraps, and an alias
    # would read 2*pi/dt, at least 25*omega, away
    @settings(max_examples=15, deadline=None)
    @given(omega=st.floats(0.5, 2.0), fraction=st.floats(0.05, 1.0))
    @example(omega=2.0, fraction=1.0)
    def test_final_freq_cannot_alias_inside_the_accuracy_guard(self, omega, fraction):
        dt = fraction * 2.0 * math.pi / (25.0 * max(omega, 1.0))
        cfg = OscillatorArrayConfig(n=1, delta_omega=0.0, epsilon=0.0, dt=dt, t_end=40 * dt)
        trace = integrate(np.array([omega]), cfg, np.array([1.0 + 0j]))
        # RK4's phase error at the guard, 25 steps a period, is 3.25e-5 of omega
        assert trace.final_freq[0] == pytest.approx(omega, rel=4e-5)

    # the moving average spans a period of the carrier omega0 = 1, 2*pi/dt samples;
    # the frequencies of a beating pair vary, so a window of another length reads
    # another final_freq. Each case is a pair at carrier c, at dt 0.05*c and 0.1*c,
    # on the carrier 1: the rates over c, dt and t_end times c.
    @pytest.mark.parametrize("c, dt, window", [(2.0, 0.1, 63), (0.5, 0.05, 126)])
    def test_final_freq_smooths_over_a_period_of_omega0(self, c, dt, window):
        assert window == round(2.0 * math.pi / dt)
        # a detuning of 0.1/c against 2*eps = 0.02/c: the pair beats
        cfg = OscillatorArrayConfig(n=2, rho=1.0 / c, epsilon=0.01 / c, dt=dt, t_end=60.0 * c)
        omega, init = 1.0 + np.array([-0.05, 0.05]) / c, random_initial_state(2, 1)
        trace = integrate(omega, cfg, init)
        num = trace.num_samples
        gradient = np.gradient(unwrapped_phases(rk4_history(omega, cfg, init)), trace.times, axis=0)
        # sample k averages samples k - window//2 + [0, window), each clamped into the run
        taps = np.clip(np.arange(num)[:, None] + np.arange(window) - window // 2, 0, num - 1)
        reference = gradient[taps].mean(axis=1)[-max(1, num // 10):].mean(axis=0)
        assert np.abs(trace.final_freq - reference).max() <= 1e-12

    def test_needs_three_samples(self):
        cfg = OscillatorArrayConfig(n=1, delta_omega=0.0, epsilon=0.0, dt=0.1, t_end=0.2)
        trace = integrate(np.array([1.0]), cfg, np.array([1.0 + 0j]))
        # a final state is no history, and two states are too short a one; no
        # config makes a run of 2 samples, so that history is built here
        history = np.array([[1.0 + 0j], [np.exp(0.1j)]])
        short = SimulationTrace(sample_times(cfg)[:2], history, cfg, history[:, 0])
        for run in (trace, short):
            with pytest.raises(ConfigurationError, match="needs >= 3 states"):
                instantaneous_frequency(run)


def decaying_over(tau: float, dt: float) -> OscillatorArrayConfig:
    """A config whose peak detector decays with time constant tau, sampled every dt:
    its decay time, PEAK_DECAY_PERIODS carrier periods, is tau with time in units of
    tau / (PEAK_DECAY_PERIODS * 2*pi), so its dt is dt in those units. The accuracy
    guard needs dt below about tau/275."""
    dt *= PEAK_DECAY_PERIODS * 2.0 * math.pi / tau
    return OscillatorArrayConfig(n=1, dt=dt, t_end=2 * dt)


class TestPeakDetector:
    def test_no_decay_is_running_max(self):
        env = np.array([0.1, 0.5, 0.2, 0.8, 0.3])
        out = peak_detector(env, decaying_over(1e12, 0.1))
        assert np.allclose(out, np.maximum.accumulate(env))

    def test_constant_input(self):
        env = np.full(50, 0.7)
        assert np.allclose(peak_detector(env, decaying_over(5.0, 0.01)), 0.7)

    def test_pulse_decays_exponentially(self):
        dt, tau = 0.1, 30.0
        env = np.zeros(100)
        env[:20] = 1.0
        out = peak_detector(env, decaying_over(tau, dt))
        t_after = dt * np.arange(80)
        assert np.allclose(out[20:], np.exp(-(t_after + dt) / tau))

    def test_never_below_input(self):
        rng = np.random.default_rng(0)
        env = rng.uniform(0, 1, 200)
        out = peak_detector(env, decaying_over(2.0, 0.005))
        assert (out >= env - 1e-15).all()

    def test_empty_envelope(self):
        with pytest.raises(ConfigurationError):
            peak_detector(np.array([]), decaying_over(1.0, 0.001))

    def test_rejects_bad_params(self):
        # its decay reads dt, which the config holds positive and finite; a NaN
        # would make every sample after the first NaN
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match=f"^dt must be .* finite, got {bad}"):
                peak_detector(np.ones(3), OscillatorArrayConfig(n=1, dt=bad))


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
        # a tolerance of 0 would read every point as unlocked
        message = "^epsilon is 0, and so is the lock tolerance; set epsilon above 0$"
        with pytest.raises(ConfigurationError, match=message):
            sweep_locking(0.0, np.array([0.1]))
        # the sweep sets n, delta_omega and epsilon itself and takes no other array setting
        # the carrier omega0 is no setting at all
        for key in ("n", "delta_omega", "omega0"):
            message = f"^a locking sweep sets only t_end, rho, dt, not {key}$"
            with pytest.raises(ConfigurationError, match=message):
                sweep_locking(0.05, np.array([0.1]), **{key: 1})

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_a_non_finite_epsilon_is_blamed_on_epsilon(self, epsilon):
        # by the config, before the lock tolerance is derived from it
        with pytest.raises(ConfigurationError, match="^epsilon must be >= 0 and finite"):
            sweep_locking(epsilon, np.array([0.1]))

    # the lock tolerance is LOCK_SPREAD_FRACTION = 0.1 of epsilon, which a final
    # frequency gap of 0.105 of it passes
    @pytest.mark.parametrize("fraction, locked", [(0.095, True), (0.105, False)])
    def test_the_tolerance_is_a_tenth_of_epsilon(self, monkeypatch, fraction, locked):
        epsilon = 0.05

        def gapped(omega, cfg, init):  # every row's final frequencies fraction*epsilon apart
            rows = len(omega)
            freq = np.tile([1.0, 1.0 + fraction * epsilon], (rows, 1))
            return SimulationTrace(sample_times(cfg), np.zeros((rows, 1, 2)), cfg,
                                   np.ones((rows, cfg.num_samples), dtype=complex),
                                   (None,) * rows, freq)

        monkeypatch.setattr(oscconv.inference, "integrate", gapped)
        (point,) = sweep_locking(epsilon, np.array([0.1]), t_end=20.0)
        assert math.isclose(point.final_freq_gap, fraction * epsilon)
        assert point.locked is locked

    def test_default_dt_covers_the_fastest_grid_frequency(self):
        grid = np.array([0.0, 0.06, 0.1])
        explicit = sweep_locking(0.05, grid, t_end=60.0, dt=2 * math.pi / (50 * 1.05))
        assert sweep_locking(0.05, grid, t_end=60.0) == explicit

    def test_array_settings_reach_the_config(self, monkeypatch):
        calls = []

        def recording(omega, cfg, *args, **kwargs):
            calls.append((omega, cfg))
            return integrate(omega, cfg, *args, **kwargs)

        monkeypatch.setattr(oscconv.inference, "integrate", recording)
        points = sweep_locking(0.05, np.array([0.0, 0.1]), rho=0.5, dt=0.1, t_end=60.0)
        assert len(points) == 2
        [(omega, cfg)] = calls
        assert (cfg.rho, cfg.dt, cfg.t_end) == (0.5, 0.1, 60.0)
        # the oscillators sit at omega0 -/+ d/2
        assert np.allclose(omega, [[1.0, 1.0], [0.95, 1.05]])
        # the array settings take their defaults from the config alone
        named = inspect.signature(sweep_locking).parameters
        assert not {"rho", "t_end", "dt"} & set(named)
        # so a positional setting is refused rather than read as the seed
        assert named["seed"].kind is inspect.Parameter.KEYWORD_ONLY
        with pytest.raises(TypeError):
            sweep_locking(0.05, np.array([0.1]), 2)

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
        with pytest.raises(ConfigurationError, match="^5000 sweep points would record"):
            sweep_locking(0.05, np.linspace(0.0, 0.2, 5000))
        # a final frequency needs 3 samples; the config takes no run of 2
        with pytest.raises(ConfigurationError, match="make 1 step; a run needs 2 or more$"):
            sweep_locking(0.05, np.array([0.1]), t_end=0.1, dt=0.1)
        assert calls == []

    # 4,096 samples a run: 4,096 seeds or sweep points record exactly the cap
    @pytest.mark.parametrize("rows", [2**12, 2**12 + 1])
    def test_seeds_and_sweep_points_are_held_to_the_cap(self, monkeypatch, use_cpus, rows):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(oscconv.inference, "integrate", reached)
        use_cpus(1)
        run = dict(dt=0.125, t_end=4095 * 0.125)
        cfg = OscillatorArrayConfig(n=1, delta_omega=0.0, **run)
        calls = {
            "seeds": lambda: next(oscconv.inference._seed_blocks(
                [np.ones(1)], cfg, tuple(range(rows)), None)),
            "sweep points": lambda: sweep_locking(0.05, np.linspace(0.0, 0.1, rows), **run),
        }
        for what, call in calls.items():
            if rows == 2**12:
                with pytest.raises(Reached):
                    call()
            else:
                message = re.escape(f"{rows} {what} would record {rows * 2**12} values, more "
                                    f"than 2**24; use fewer {what}, raise dt or lower t_end")
                with pytest.raises(ConfigurationError, match=f"^{message}$"):
                    call()

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

    def test_a_sweep_split_across_calls_reads_as_one_call(self, monkeypatch):
        rows = []

        def counting(omega, *args, **kwargs):
            rows.append(len(omega))
            return integrate(omega, *args, **kwargs)

        monkeypatch.setattr(oscconv.inference, "integrate", counting)
        grid = np.linspace(0.0, 0.2, 21)
        # at rho 1e-3 and epsilon 0.07 the locked points diverge: here the last four
        diverging = np.concatenate([np.linspace(0.42, 0.28, 17), np.linspace(0.021, 0.0, 4)])

        def sweeps():
            points = sweep_locking(0.05, grid, t_end=60.0)
            with pytest.raises(DivergenceError) as failure:
                sweep_locking(0.07, diverging, rho=1e-3, t_end=50.0)
            return points, (failure.value.step, failure.value.norm)

        whole = sweeps()
        assert rows == [21, 21]
        # 8 two-oscillator rows a call: 21 points take 3 calls, and the first
        # failure is in the third
        monkeypatch.setattr(oscconv.inference, "_CALL_STATES", 16)
        assert sweeps() == whole
        assert rows[2:] == [8, 8, 5] * 2

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
