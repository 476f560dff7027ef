import dataclasses
import gc
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscconv.inference
from oscconv import (
    ConfigurationError,
    DomPolicy,
    Fragment,
    GaborFilter,
    Image,
    MatchReport,
    OscillatorArrayConfig,
    PolicyError,
    classify_lock,
    default_bank,
    dom,
    dot,
    edge_fragment,
    feature_map_onn,
    fsk_encode,
    gabor_filter,
    integrate,
    match_filters,
    measure_lock_time,
    random_initial_state,
    winner_take_all,
)
from oscconv.dynamics import SimulationTrace

FILTER = gabor_filter(5, 30.0, 0.35)
MATCH_FRAG = Fragment(side=5, values=FILTER.values.copy())
ANTI_FRAG = Fragment(side=5, values=-FILTER.values)
ANTI_FILTER = gabor_filter(5, 30.0, 0.35, phase=math.pi)


def run_match_trace(fragment, filt, seed=0, t_end=400.0, init=None):
    cfg = OscillatorArrayConfig(n=25, t_end=t_end)
    omega = fsk_encode(fragment, filt, cfg.omega0, cfg.delta_omega)
    return integrate(omega, cfg, random_initial_state(25, seed) if init is None else init)


class TestDomPolicy:
    def test_defaults(self):
        policy = DomPolicy()
        assert policy.method == "trailing_mean_envelope"
        assert policy.trailing_fraction == 0.2

    @pytest.mark.parametrize(
        "kw",
        [
            dict(method="last_sample"),
            dict(trailing_fraction=0.0),
            dict(trailing_fraction=1.5),
            dict(method="sample_peak_detector"),
            dict(method="sample_peak_detector", sample_time=-1.0),
        ],
    )
    def test_rejects_bad_policy(self, kw):
        with pytest.raises(ConfigurationError):
            DomPolicy(**kw)


    @pytest.mark.parametrize("method", ["sample_peak_detector", "trailing_mean_envelope"])
    @pytest.mark.parametrize("sample_time", [math.nan, math.inf])
    def test_rejects_non_finite_sample_time(self, method, sample_time):
        with pytest.raises(ConfigurationError, match="sample_time"):
            DomPolicy(method=method, sample_time=sample_time)


class TestDom:
    def test_identical_oscillators_reach_unity(self):
        # uncoupled, equal frequencies, one shared initial state: all
        # columns stay identical and the mean has full amplitude
        cfg = OscillatorArrayConfig(
            n=4, delta_omega=0.0, epsilon=0.0, t_end=100.0
        )
        init = np.full(4, 0.2 * np.exp(0.3j))
        trace = integrate(np.ones(4), cfg, init)
        assert np.array_equal(trace.states[:, 1:], trace.states[:, :1].repeat(3, axis=1))
        assert dom(trace, DomPolicy()) == pytest.approx(1.0, abs=1e-5)

    def test_incoherent_phases_scale_as_root_n(self):
        # frozen random phases: |mean of n unit phasors| averages to
        # ~0.886/sqrt(n), far below the coherent value
        cfg = OscillatorArrayConfig(n=25, delta_omega=0.0, epsilon=0.0, t_end=20.0)
        policy = DomPolicy()
        values = [
            dom(integrate(np.ones(25), cfg, random_initial_state(25, seed)), policy)
            for seed in range(200)
        ]
        assert 0.12 < np.mean(values) < 0.24

    def test_trailing_window_uses_requested_fraction(self):
        trace = run_match_trace(MATCH_FRAG, FILTER, t_end=100.0)
        full = dom(trace, DomPolicy(trailing_fraction=1.0))
        assert full == pytest.approx(trace.envelope.mean())

    def test_sample_peak_detector(self):
        trace = run_match_trace(MATCH_FRAG, FILTER, t_end=100.0)
        policy = DomPolicy(method="sample_peak_detector", sample_time=trace.times[-1])
        assert dom(trace, policy) == pytest.approx(trace.peak_detector_output[-1])
        start = DomPolicy(method="sample_peak_detector", sample_time=0.0)
        assert dom(trace, start) == pytest.approx(trace.peak_detector_output[0])

    def test_sample_time_beyond_trace(self):
        trace = run_match_trace(MATCH_FRAG, FILTER, t_end=50.0)
        policy = DomPolicy(method="sample_peak_detector", sample_time=51.0)
        with pytest.raises(PolicyError):
            dom(trace, policy)

    # from unit-amplitude initial phases the mean-field gain lifts the
    # coherent amplitude, and so the DOM, to at most sqrt(1 + eps*n/rho)
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 9), rho=st.floats(0.2, 2.0), epsilon=st.floats(0.0, 0.1),
        include_self=st.booleans(), seed=st.integers(0, 10**6), peak=st.booleans(),
        data=st.data(),
    )
    def test_bounds_property(self, n, rho, epsilon, include_self, seed, peak, data):
        detuning = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
        cfg = OscillatorArrayConfig(
            n=n, rho=rho, epsilon=epsilon, include_self_in_sum=include_self, t_end=60.0
        )
        omega = cfg.omega0 + cfg.delta_omega * np.array(detuning)
        init = np.array([random_initial_state(n, seed + k) for k in range(3)])
        policy = DomPolicy("sample_peak_detector", 30.0) if peak else DomPolicy()
        # the relative 1e-5 covers the fixed RK4 step, whose limit cycle lies
        # up to 2e-6 above the exact one at the default dt and rho >= 0.2
        bound = math.sqrt(1.0 + epsilon * n / rho) * (1.0 + 1e-5)
        for value in dom(integrate(np.tile(omega, (3, 1)), cfg, init), policy):
            assert 0.0 <= value <= bound

    def test_coupled_match_exceeds_mismatch(self):
        # the anti-match splits into two coherent groups at omega0 +/- 2
        # delta_omega, so its DOM beats rather than collapsing; the gap
        # to the fully coherent match is still wide
        match = run_match_trace(MATCH_FRAG, FILTER)
        anti = run_match_trace(ANTI_FRAG, FILTER)
        policy = DomPolicy()
        assert dom(match, policy) > 1.25 * dom(anti, policy)
        assert dom(match, policy) - dom(anti, policy) > 0.25


class TestClassifyLock:
    def test_perfect_match_locks(self):
        assert classify_lock(run_match_trace(MATCH_FRAG, FILTER)) is True

    def test_anti_match_stays_unlocked(self):
        assert classify_lock(run_match_trace(ANTI_FRAG, FILTER)) is False

    def test_wide_tolerance_accepts_anything(self):
        trace = run_match_trace(ANTI_FRAG, FILTER)
        assert classify_lock(trace, spread_tol=1.0) is True

    def test_rejects_bad_tolerance(self):
        trace = run_match_trace(MATCH_FRAG, FILTER, t_end=50.0)
        with pytest.raises(ConfigurationError):
            classify_lock(trace, spread_tol=0.0)

    @pytest.mark.parametrize("spread_tol", [math.nan, math.inf])
    def test_rejects_non_finite_tolerance(self, spread_tol):
        trace = run_match_trace(MATCH_FRAG, FILTER, t_end=50.0)
        with pytest.raises(ConfigurationError, match="spread_tol"):
            classify_lock(trace, spread_tol=spread_tol)

    def test_zero_delta_omega_needs_a_tolerance(self):
        cfg = OscillatorArrayConfig(n=2, delta_omega=0.0, epsilon=0.05, t_end=20.0)
        trace = integrate(np.ones(2), cfg, random_initial_state(2, 0))
        with pytest.raises(ConfigurationError, match="delta_omega is 0: set spread_tol"):
            classify_lock(trace)
        assert classify_lock(trace, spread_tol=0.01) in (True, False)


class TestMeasureLockTime:
    def test_match_settles_early(self):
        trace = run_match_trace(MATCH_FRAG, FILTER)
        t_lock = measure_lock_time(trace)
        assert t_lock is not None
        assert 0.0 <= t_lock < 100.0

    def test_anti_match_never_settles(self):
        for seed in range(3):
            trace = run_match_trace(ANTI_FRAG, FILTER, seed=seed)
            assert measure_lock_time(trace) is None

    def test_already_settled_gives_zero(self):
        # start fully coherent: envelope begins inside the plateau band
        init = np.exp(0.7j) * np.ones(25)
        trace = run_match_trace(MATCH_FRAG, FILTER, init=init)
        assert measure_lock_time(trace) == 0.0

    @pytest.mark.parametrize("kw", [
        dict(dom_threshold_fraction=0.0),
        dict(dom_threshold_fraction=1.0),
    ])
    def test_rejects_bad_fractions(self, kw):
        trace = run_match_trace(MATCH_FRAG, FILTER, t_end=50.0)
        with pytest.raises(ConfigurationError):
            measure_lock_time(trace, **kw)


@pytest.fixture(scope="module")
def polar_report():
    bank = (FILTER, gabor_filter(5, 30.0, 0.35, phase=math.pi))
    cfg = OscillatorArrayConfig(n=25, t_end=400.0)
    return match_filters(MATCH_FRAG, bank, cfg, DomPolicy(), seeds=(0, 1, 2))


class TestMatchFilters:
    def test_match_beats_anti_match(self, polar_report):
        good, bad = polar_report.results
        assert good.dot == 25.0 and bad.dot == -25.0
        assert good.dom_mean > bad.dom_mean + 0.25
        for dg, db in zip(good.doms, bad.doms):
            assert dg > db
        assert polar_report.ranking == (0, 1)
        assert polar_report.dynamic_range == pytest.approx(
            good.dom_mean - bad.dom_mean
        )

    def test_lock_flags_and_times(self, polar_report):
        good, bad = polar_report.results
        assert good.locked and not bad.locked
        assert good.lock_time is not None and good.lock_time >= 0.0
        assert bad.lock_time is None

    def test_per_seed_detail(self, polar_report):
        for result in polar_report.results:
            assert len(result.doms) == 3
            assert result.dom_mean == pytest.approx(np.mean(result.doms))
            assert result.dom_std == pytest.approx(np.std(result.doms))

    def test_tie_breaks_toward_lower_index(self):
        bank = (FILTER, FILTER)
        cfg = OscillatorArrayConfig(n=25, t_end=200.0)
        report = match_filters(MATCH_FRAG, bank, cfg, DomPolicy(), seeds=(0,))
        assert report.results[0].dom_mean == report.results[1].dom_mean
        assert report.ranking == (0, 1)
        assert report.results[0].dom_std == 0.0

    def test_single_seed_std_is_zero(self):
        cfg = OscillatorArrayConfig(n=25, t_end=200.0)
        report = match_filters(MATCH_FRAG, (FILTER,), cfg, DomPolicy(), seeds=(5,))
        assert report.results[0].dom_std == 0.0
        assert report.ranking == (0,)
        assert report.dynamic_range == 0.0

    def test_reference_oscillator_adds_unit(self):
        cfg = OscillatorArrayConfig(n=26, t_end=200.0)
        report = match_filters(
            MATCH_FRAG, (FILTER,), cfg, DomPolicy(), seeds=(0,),
            reference_oscillator=True,
        )
        assert report.results[0].locked

    def test_divergent_runs_become_error_entries(self):
        cfg = OscillatorArrayConfig(n=25, rho=1e-3, epsilon=0.5, t_end=50.0, dt=0.1)
        report = match_filters(MATCH_FRAG, (FILTER,), cfg, DomPolicy(), seeds=(0,))
        assert report.results == ()
        assert len(report.errors) == 1
        assert report.errors[0].filter_index == 0
        assert "divergence" in report.errors[0].message
        assert report.ranking == ()
        assert report.dynamic_range == 0.0

    def test_validation(self):
        cfg = OscillatorArrayConfig(n=25, t_end=50.0)
        with pytest.raises(ConfigurationError):
            match_filters(MATCH_FRAG, (), cfg, DomPolicy(), seeds=(0,))
        with pytest.raises(ConfigurationError):
            match_filters(MATCH_FRAG, (FILTER,), cfg, DomPolicy(), seeds=())
        with pytest.raises(ConfigurationError):
            match_filters(
                MATCH_FRAG, (gabor_filter(4, 0.0, 0.2),), cfg, DomPolicy(), seeds=(0,)
            )
        bad_n = OscillatorArrayConfig(n=24, t_end=50.0)
        with pytest.raises(ConfigurationError):
            match_filters(MATCH_FRAG, (FILTER,), bad_n, DomPolicy(), seeds=(0,))


@pytest.fixture
def integrate_calls(monkeypatch):
    """Per integrate call the inference module makes: its rows, and the rows
    of earlier calls' recordings that live block traces still hold."""
    calls = []

    def owners():
        """The arrays that own the averager rows of every live block trace."""
        gc.collect()
        return {
            id(obj.averager.base): obj.averager.base for obj in gc.get_objects()
            if isinstance(obj, SimulationTrace) and obj.averager.ndim == 2
        }

    before = owners()  # kept alive here, so that no new owner reuses an id

    def counting(omega, *args, **kwargs):
        held = sum(len(owner) for key, owner in owners().items() if key not in before)
        calls.append((len(omega), held))
        return integrate(omega, *args, **kwargs)

    monkeypatch.setattr(oscconv.inference, "integrate", counting)
    return calls


class TestSeedBlocks:
    """match_filters and feature_map_onn check and encode everything before the first run."""

    def test_a_wrong_side_in_the_last_filter_raises_before_any_run(self, integrate_calls):
        bank = (FILTER, FILTER, gabor_filter(4, 0.0, 0.2))
        cfg = OscillatorArrayConfig(n=25, t_end=50.0)
        with pytest.raises(ConfigurationError, match="side"):
            match_filters(MATCH_FRAG, bank, cfg, DomPolicy(), seeds=(0,))
        assert integrate_calls == []

    def test_a_wrong_n_raises_before_any_map_run(self, integrate_calls):
        img = Image(width=6, height=6, values=np.zeros(36))
        cfg = OscillatorArrayConfig(n=24, t_end=50.0)
        with pytest.raises(ConfigurationError, match="n=25"):
            feature_map_onn(img, FILTER, cfg, DomPolicy(), seeds=(0,))
        assert integrate_calls == []

    def test_block_cap_is_checked_before_the_seeds_are_built(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return random_initial_state(*args, **kwargs)

        monkeypatch.setattr(oscconv.inference, "random_initial_state", counting)
        # at this t_end a block holds at most 47 runs
        cfg = OscillatorArrayConfig(n=25, t_end=40000.0)
        with pytest.raises(ConfigurationError, match="2\\*\\*24"):
            match_filters(MATCH_FRAG, (FILTER,), cfg, DomPolicy(), seeds=tuple(range(60)))
        assert built == []

    def test_one_block_is_alive_at_a_time(self, integrate_calls):
        # 100 seeds at this t_end: 14 filters' or windows' blocks per call
        seeds = tuple(range(100))
        cfg = OscillatorArrayConfig(n=25, t_end=20.0)
        bank = (FILTER, ANTI_FILTER, FILTER, ANTI_FILTER, FILTER)
        match_filters(MATCH_FRAG, bank, cfg, DomPolicy(), seeds)
        img = Image(width=9, height=9, values=np.resize(FILTER.values, 81))
        feature_map_onn(img, FILTER, cfg, DomPolicy(), seeds)
        assert [rows for rows, _ in integrate_calls] == [500, 1400, 1100]
        # every block of a call is read before the next call starts: no
        # trace of an earlier call is alive
        assert [held for _, held in integrate_calls] == [0] * 3


# at this coupling 10 of the 18 bank filters diverge on the edge fragment,
# filter 0 among them, and most random maps hold some failed windows
CHUNK_CFG = OscillatorArrayConfig(n=25, epsilon=0.64, delta_omega=0.3, t_end=30.0)
CHUNK_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def lone_filters():
    """Each bank filter matched alone against the edge fragment."""
    return [
        match_filters(edge_fragment(), (filt,), CHUNK_CFG, DomPolicy(), CHUNK_SEEDS)
        for filt in default_bank()
    ]


class TestChunks:
    """Blocks that share an integrate call give what each block gives alone."""

    @staticmethod
    def recording_calls():
        """A patch of the inference module's integrate that lists, per call,
        the values the trace records and its recorded state samples."""
        calls = []

        def recording(*args, **kwargs):
            trace = integrate(*args, **kwargs)
            calls.append((trace.averager.size + trace.states.size, trace.states.shape[1]))
            return trace

        return calls, mock.patch.object(oscconv.inference, "integrate", recording)

    @settings(max_examples=15, deadline=None)
    @given(picks=st.lists(st.integers(0, 17), min_size=0, max_size=5),
           at=st.integers(0, 5), blocks=st.floats(1.0, 4.0))
    def test_a_bank_matches_as_its_filters_alone(self, lone_filters, picks, at, blocks):
        picks.insert(min(at, len(picks)), 0)  # a diverging filter among them
        budget = int(blocks * len(CHUNK_SEEDS) * CHUNK_CFG.num_samples)
        calls, patch = self.recording_calls()
        bank = tuple(default_bank()[p] for p in picks)
        with patch, mock.patch.object(oscconv.inference, "_CALL_VALUES", budget):
            report = match_filters(edge_fragment(), bank, CHUNK_CFG, DomPolicy(), CHUNK_SEEDS)
        assert len(calls) == -(-len(bank) // int(blocks))
        assert max(values for values, _ in calls) <= budget
        results = {r.filter_index: r for r in report.results}
        errors = {e.filter_index: e for e in report.errors}
        assert sorted([*results, *errors]) == list(range(len(bank)))
        for index, pick in enumerate(picks):
            alone = lone_filters[pick]
            if alone.errors:
                assert errors[index] == dataclasses.replace(alone.errors[0], filter_index=index)
            else:
                assert results[index] == dataclasses.replace(alone.results[0], filter_index=index)
                assert np.array_equal(results[index].averager, alone.results[0].averager)
        assert errors  # filter 0's at least

    @settings(max_examples=10, deadline=None)
    @given(width=st.integers(5, 7), height=st.integers(5, 7), seed=st.integers(0, 2**32 - 1),
           blocks=st.floats(1.0, 4.0))
    def test_a_map_matches_as_its_windows_alone(self, width, height, seed, blocks):
        filt = default_bank()[2]
        img = Image(width, height, np.random.default_rng(seed).uniform(-1.0, 1.0, width * height))
        budget = int(blocks * len(CHUNK_SEEDS) * CHUNK_CFG.num_samples)
        calls, patch = self.recording_calls()
        with patch, mock.patch.object(oscconv.inference, "_CALL_VALUES", budget):
            fmap = feature_map_onn(img, filt, CHUNK_CFG, DomPolicy(), CHUNK_SEEDS)
        assert max(values for values, _ in calls) <= budget
        # a block records no states
        assert [states for _, states in calls] == [0] * len(calls)
        errors = []
        for cell in range(fmap.width * fmap.height):
            row, col = divmod(cell, fmap.width)
            alone = feature_map_onn(Image(5, 5, img.window(row, col, 5).values), filt,
                                    CHUNK_CFG, DomPolicy(), CHUNK_SEEDS)
            assert np.array_equal(fmap.values[cell], alone.values[0], equal_nan=True)
            errors += [(row, col, message) for _, _, message in alone.errors]
        assert fmap.errors == tuple(errors)


class TestWinnerTakeAll:
    def test_prefix_of_ranking(self, ):
        report = MatchReport(results=(), errors=(), ranking=(3, 0, 2, 1), dynamic_range=0.5)
        assert winner_take_all(report, 1) == (3,)
        assert winner_take_all(report, 3) == (3, 0, 2)
        assert winner_take_all(report, 4) == (3, 0, 2, 1)

    def test_rejects_out_of_range(self):
        report = MatchReport(results=(), errors=(), ranking=(0, 1), dynamic_range=0.1)
        with pytest.raises(ConfigurationError):
            winner_take_all(report, 0)
        with pytest.raises(ConfigurationError):
            winner_take_all(report, 3)


class TestDominance:
    def test_true_filter_wins_almost_every_seed(self):
        rng = np.random.default_rng(21)
        bank = tuple(
            GaborFilter(
                side=5,
                values=rng.choice([-1.0, 1.0], 25),
                theta_deg=0.0,
                k=0.2,
            )
            for _ in range(3)
        ) + (FILTER,)
        cfg = OscillatorArrayConfig(n=25, t_end=200.0)
        seeds = tuple(range(12))
        report = match_filters(MATCH_FRAG, bank, cfg, DomPolicy(), seeds=seeds)
        true_doms = report.results[3].doms
        wins = sum(
            all(true_doms[s] > report.results[j].doms[s] for j in range(3))
            for s in range(len(seeds))
        )
        assert wins >= 10
        assert report.ranking[0] == 3


class TestFeatureMapOnn:
    def test_single_window_equals_match(self):
        img = Image(width=5, height=5, values=MATCH_FRAG.values.copy())
        cfg = OscillatorArrayConfig(n=25, t_end=200.0)
        policy = DomPolicy()
        fmap = feature_map_onn(img, FILTER, cfg, policy, seeds=(0, 1))
        report = match_filters(MATCH_FRAG, (FILTER,), cfg, policy, seeds=(0, 1))
        assert fmap.values.shape == (1,)
        assert fmap.width == fmap.height == 1
        assert fmap.values[0] == report.results[0].dom_mean
        assert fmap.errors == ()

    def test_planted_pattern_peaks_at_plant(self):
        grid = np.tile(-FILTER.values.reshape(5, 5), (2, 2))[:6, :6].copy()
        grid[1:6, 1:6] = FILTER.values.reshape(5, 5)
        img = Image(width=6, height=6, values=grid.ravel())
        cfg = OscillatorArrayConfig(n=25, t_end=200.0)
        fmap = feature_map_onn(img, FILTER, cfg, DomPolicy(), seeds=(0, 1))
        assert fmap.grid().shape == (2, 2)
        peak = np.unravel_index(np.argmax(fmap.grid()), (2, 2))
        assert peak == (1, 1)

    def test_divergent_windows_hold_nan(self):
        img = Image(width=5, height=5, values=MATCH_FRAG.values.copy())
        cfg = OscillatorArrayConfig(n=25, rho=1e-3, epsilon=0.5, t_end=50.0, dt=0.1)
        fmap = feature_map_onn(img, FILTER, cfg, DomPolicy(), seeds=(0,))
        assert np.isnan(fmap.values[0])
        assert len(fmap.errors) == 1
        assert fmap.errors[0][:2] == (0, 0)

    def test_validation(self):
        img = Image(width=4, height=4, values=np.zeros(16))
        cfg = OscillatorArrayConfig(n=25, t_end=50.0)
        with pytest.raises(ConfigurationError):
            feature_map_onn(img, FILTER, cfg, DomPolicy(), seeds=(0,))
        img5 = Image(width=5, height=5, values=np.zeros(25))
        with pytest.raises(ConfigurationError):
            feature_map_onn(img5, FILTER, cfg, DomPolicy(), seeds=())
        bad_n = OscillatorArrayConfig(n=24, t_end=50.0)
        with pytest.raises(ConfigurationError):
            feature_map_onn(img5, FILTER, bad_n, DomPolicy(), seeds=(0,))
