import argparse
import ast
import csv
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oscconv.cli
import oscconv.inference
from oscconv import (
    OscillatorArrayConfig,
    default_bank,
    fsk_encode,
    gabor_filter,
    integrate,
    random_initial_state,
)
from oscconv.cli import RunConfig, build_parser, load_image, main
from oscconv.dynamics import peak_detector
from oscconv.pgm import write_pgm


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture()
def white_image(tmp_path):
    path = tmp_path / "white.pgm"
    write_pgm(path, np.full((5, 5), 255.0))
    return str(path)


@pytest.fixture()
def planted_image(tmp_path):
    # bank filter 0 rendered to pixels: +1 -> 255, -1 -> 0, so the
    # normalized image reproduces the filter exactly
    values = default_bank()[0].values.reshape(5, 5)
    path = tmp_path / "planted.pgm"
    write_pgm(path, (values + 1.0) / 2.0 * 255.0)
    return str(path)


@pytest.fixture()
def one_filter_bank(tmp_path):
    path = tmp_path / "one_filter_bank.json"
    path.write_text(json.dumps([{"theta_deg": 0, "k": 0.2}]))
    return str(path)


def runs_without_and_with_config(capsys, tmp_path, config: dict, *argv):
    """(exit code, stdout, stderr, {file name: bytes}) of argv run without, then with,
    a config file holding config."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    runs = []
    for name, extra in (("plain", ()), ("configured", ("--config", str(path)))):
        out_dir = tmp_path / name
        code, out, err = run_cli(capsys, *argv, *extra, "--out-dir", str(out_dir))
        runs.append((code, out, err, {p.name: p.read_bytes() for p in out_dir.iterdir()}))
    return runs


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def modules_after_runs(names: list, *argvs: list) -> tuple:
    """Run main on each argv in one fresh interpreter. Return the modules of
    names that import numpy loaded, main's exit codes, and the modules of names
    loaded after the runs."""
    script = "\n".join([
        "import sys, numpy",
        f"eager = [m for m in {names!r} if m in sys.modules]",
        "from oscconv.cli import main",
        f"codes = [main(argv) for argv in {list(argvs)!r}]",
        f"print(repr((eager, codes, [m for m in {names!r} if m in sys.modules])))",
    ])
    src = str(Path(oscconv.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    return ast.literal_eval(run.stdout.splitlines()[-1])


def test_no_run_imports_an_rng(tmp_path):
    # the initial phases come from the package's own PCG64 stream; numpy.random
    # would bring secrets and hashlib's OpenSSL binding with it
    names = ["numpy.random", "secrets", "_hashlib"]
    eager, codes, loaded = modules_after_runs(
        names,
        ["match", str(GOLDEN_INPUTS / "fragment.pgm"), "--seeds", "0:2", "--t-end", "20",
         "--out-dir", str(tmp_path / "m")],
        ["sweep-locking", "--t-end", "20", "--out-dir", str(tmp_path / "s")],
        ["featuremap", str(GOLDEN_INPUTS / "grating7.pgm"), "--seeds", "0", "--t-end", "20",
         "--out-dir", str(tmp_path / "f")],
    )
    if "numpy.random" in eager:
        pytest.skip("import numpy loads numpy.random on this numpy")
    assert (codes, loaded) == ([0, 0, 0], eager)


def assert_one_line_error(code, err):
    assert code == 1
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


MATCH_FAST = ("--seeds", "0,1", "--t-end", "200")

REPORT_HEADER = [
    "filter_index", "theta_deg", "k", "dot",
    "dom_mean", "dom_std", "locked", "lock_time",
]


class TestMatch:
    def test_report_structure(self, capsys, tmp_path, white_image):
        out_dir = tmp_path / "m"
        code, out, err = run_cli(
            capsys, "match", white_image, "--out-dir", str(out_dir), *MATCH_FAST
        )
        assert code == 0
        rows = read_rows(out_dir / "report.csv")
        assert rows[0] == REPORT_HEADER
        assert len(rows) == 19
        assert [r[0] for r in rows[1:]] == [str(i) for i in range(18)]
        for row in rows[1:]:
            assert row[6] in ("0", "1")
            float(row[4])  # dom_mean parses
        assert "winner: filter" in out
        assert "filters: 18 ok, 0 failed" in out
        assert err == ""

    def test_deterministic_output_bytes(self, capsys, tmp_path, white_image):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run_cli(
                capsys, "match", white_image, "--out-dir", str(d), *MATCH_FAST
            )
            assert code == 0
        assert (dirs[0] / "report.csv").read_bytes() == (dirs[1] / "report.csv").read_bytes()

    def test_planted_pattern_wins(self, capsys, tmp_path, planted_image):
        out_dir = tmp_path / "p"
        code, out, _ = run_cli(
            capsys, "match", planted_image, "--out-dir", str(out_dir), *MATCH_FAST
        )
        assert code == 0
        assert "winner: filter 0 " in out
        rows = read_rows(out_dir / "report.csv")
        assert rows[1][3] == "25.0"  # exact dot for the planted filter

    def test_dump_traces(self, capsys, tmp_path, white_image):
        out_dir = tmp_path / "t"
        bank_file = tmp_path / "bank.json"
        bank_file.write_text(json.dumps([{"theta_deg": 0, "k": 0.2}]))
        code, _, _ = run_cli(
            capsys, "match", white_image, "--out-dir", str(out_dir),
            "--bank", str(bank_file), "--dump-traces", "--seeds", "0",
            "--t-end", "100",
        )
        assert code == 0
        rows = read_rows(out_dir / "trace_filter_00.csv")
        assert rows[0] == ["time", "averager_re", "averager_im", "envelope", "peak_detector"]
        times = [float(r[0]) for r in rows[1:]]
        assert times[0] == 0.0
        assert 99.9 < times[-1] < 100.1
        assert not (out_dir / "trace_filter_01.csv").exists()

    @pytest.mark.parametrize("reference", [False, True])
    def test_dump_traces_are_the_first_seed_match_runs(
        self, capsys, tmp_path, monkeypatch, white_image, reference
    ):
        rows = []  # the rows of each call: the leading dimension of omega

        def counting(omega, *args, **kwargs):
            rows.append(np.atleast_2d(omega).shape[0])
            return integrate(omega, *args, **kwargs)

        # every module that could integrate on behalf of the command
        monkeypatch.setattr(oscconv.inference, "integrate", counting)
        monkeypatch.setattr(oscconv.cli, "integrate", counting)
        entries = [{"theta_deg": 0, "k": 0.2}, {"theta_deg": 90, "k": 0.35}]
        bank_file = tmp_path / "bank.json"
        bank_file.write_text(json.dumps(entries))
        out_dir = tmp_path / "t"
        code, _, _ = run_cli(
            capsys, "match", white_image, "--out-dir", str(out_dir),
            "--bank", str(bank_file), "--dump-traces", "--seeds", "3,5",
            "--t-end", "100", *(["--reference-oscillator"] if reference else []),
        )
        assert code == 0
        # one row per filter and seed: nothing is integrated twice
        assert sum(rows) == 2 * len(entries)

        fragment = load_image(white_image).window(0, 0, 5)
        cfg = OscillatorArrayConfig(n=26 if reference else 25, t_end=100.0)
        for index, entry in enumerate(entries):
            omega = fsk_encode(fragment, gabor_filter(5, entry["theta_deg"], entry["k"]), cfg)
            if reference:
                omega = np.append(omega, cfg.omega0)
            trace = integrate(omega, cfg, random_initial_state(cfg.n, 3))
            rows = read_rows(out_dir / f"trace_filter_{index:02d}.csv")[1:]
            dumped = np.array(rows, dtype=np.float64)
            expected = np.column_stack([
                trace.times, trace.averager.real, trace.averager.imag,
                trace.envelope, peak_detector(trace.envelope, trace.config),
            ])
            assert np.array_equal(dumped, expected)

    def test_dump_traces_write_the_bytes_of_csv(self, capsys, tmp_path):
        # the golden match_dump case, against csv's row-wise writing of each run's trace
        inputs = Path(__file__).parent / "golden" / "inputs"
        out_dir = tmp_path / "t"
        code, _, _ = run_cli(
            capsys, "match", str(inputs / "fragment.pgm"), "--bank", str(inputs / "bank3.json"),
            "--dump-traces", "--t-end", "40", "--seeds", "0,1", "--out-dir", str(out_dir),
        )
        assert code == 0
        fragment = load_image(str(inputs / "fragment.pgm")).window(0, 0, 5)
        cfg = OscillatorArrayConfig(n=25, t_end=40.0)
        entries = json.loads((inputs / "bank3.json").read_text())
        held = 0  # peak cells that hold a value above their envelope's
        for index, entry in enumerate(entries):
            omega = fsk_encode(fragment, gabor_filter(5, entry["theta_deg"], entry["k"]), cfg)
            trace = integrate(omega, cfg, random_initial_state(cfg.n, 0))
            peak = peak_detector(trace.envelope, trace.config)
            held += int((peak != trace.envelope).sum())
            name = f"trace_filter_{index:02d}.csv"
            oscconv.cli._write_csv(
                tmp_path / name,
                ["time", "averager_re", "averager_im", "envelope", "peak_detector"],
                np.column_stack([trace.times, trace.averager.real, trace.averager.imag, trace.envelope,
                                 peak]).tolist(),
            )
            assert (out_dir / name).read_bytes() == (tmp_path / name).read_bytes()
        assert held > 0  # filter 1 beats: 209 of its 351 cells

    def test_the_default_match_is_one_integrate_call(self, capsys, tmp_path, monkeypatch,
                                                    process_log, use_cpus):
        def counting(omega, *args, **kwargs):
            process_log.append(len(omega))
            return integrate(omega, *args, **kwargs)

        monkeypatch.setattr(oscconv.inference, "integrate", counting)
        fragment = Path(__file__).parent / "golden" / "inputs" / "fragment.pgm"
        runs = len(default_bank()) * len(RunConfig().seeds)
        assert runs == 144
        # one call, split into a share per CPU: one integrate call a share, each
        # of 18 / shares filters' 8-seed blocks
        for cpus, shares in [(1, [144]), (2, [72, 72]), (3, [48, 48, 48])]:
            use_cpus(cpus)
            code, _, _ = run_cli(capsys, "match", str(fragment), "--out-dir",
                                 str(tmp_path / f"m{cpus}"))
            assert code == 0
            assert sorted(process_log.pop()) == shares
        # the call size holds the default match's states, and no more than twice them
        states = runs * 25  # oscillators of a 5x5 filter's run
        assert states <= oscconv.inference._CALL_STATES < 2 * states

    def test_a_match_leaves_numpy_ma_unimported(self, tmp_path):
        # on numpy 2, np.median imports numpy.ma for its NaN check
        argv = ["match", str(GOLDEN_INPUTS / "fragment.pgm"), "--seeds", "0:2", "--t-end", "20",
                "--out-dir", str(tmp_path / "m")]
        eager, codes, loaded = modules_after_runs(["numpy.ma"], argv)
        if eager:
            pytest.skip("import numpy loads numpy.ma on this numpy")
        assert (codes, loaded) == ([0], [])

    def test_all_filters_failing_exits_2(self, capsys, tmp_path, white_image):
        out_dir = tmp_path / "f"
        code, out, err = run_cli(
            capsys, "match", white_image, "--out-dir", str(out_dir),
            "--rho", "1e-3", "--epsilon", "0.5", "--seeds", "0", "--t-end", "50",
        )
        assert code == 2
        assert "numeric error:" in err
        errors = read_rows(out_dir / "report_errors.csv")
        assert errors[0] == ["filter_index", "message"]
        assert len(errors) == 19
        report = read_rows(out_dir / "report.csv")
        assert len(report) == 1  # header only

    def test_window_outside_image(self, capsys, tmp_path, white_image):
        code, _, err = run_cli(
            capsys, "match", white_image, "--origin", "1,0", *MATCH_FAST
        )
        assert code == 1
        assert "error:" in err

    def test_missing_image(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "match", str(tmp_path / "nope.pgm"))
        assert code == 1
        assert "error:" in err

    def test_origin_needs_two_coordinates(self, capsys, white_image):
        code, _, err = run_cli(capsys, "match", white_image, "--origin", "1,2,3")
        assert (code, err) == (1, "error: --origin expects 'row,col', got '1,2,3'\n")


class TestConfigHandling:
    def test_missing_config_file(self, capsys, tmp_path, white_image):
        code, _, err = run_cli(capsys, "match", white_image, "--config", str(tmp_path / "nope.json"))
        assert_one_line_error(code, err)
        assert err.startswith("error: cannot read config file")

    def test_flags_override_config_file(self, capsys, tmp_path, white_image):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_end": 50.0, "seeds": [0]}))
        bank_file = tmp_path / "bank.json"
        bank_file.write_text(json.dumps([{"theta_deg": 0, "k": 0.2}]))
        out_dir = tmp_path / "o"
        code, _, _ = run_cli(
            capsys, "match", white_image, "--config", str(cfg),
            "--bank", str(bank_file), "--out-dir", str(out_dir),
            "--dump-traces", "--t-end", "100",
        )
        assert code == 0
        times = [float(r[0]) for r in read_rows(out_dir / "trace_filter_00.csv")[1:]]
        assert 99.9 < times[-1] < 100.1  # flag t_end won over the file's 50

    def test_config_file_applies(self, capsys, tmp_path, white_image):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_end": 50.0, "seeds": [0]}))
        bank_file = tmp_path / "bank.json"
        bank_file.write_text(json.dumps([{"theta_deg": 0, "k": 0.2}]))
        out_dir = tmp_path / "o2"
        code, _, _ = run_cli(
            capsys, "match", white_image, "--config", str(cfg),
            "--bank", str(bank_file), "--out-dir", str(out_dir), "--dump-traces",
        )
        assert code == 0
        times = [float(r[0]) for r in read_rows(out_dir / "trace_filter_00.csv")[1:]]
        assert 49.9 < times[-1] < 50.1

    def test_seed_key_is_ignored_by_match(self, capsys, tmp_path, white_image, one_filter_bank):
        # seed sets the sweep's initial phases; a match run's come from its seeds
        plain, seeded = runs_without_and_with_config(
            capsys, tmp_path, {"seed": 3}, "match", white_image, "--bank", one_filter_bank,
            "--dump-traces", "--seeds", "0,1", "--t-end", "50",
        )
        assert plain == seeded
        assert plain[0] == 0 and len(plain[3]) == 2

    def test_reference_oscillator_key_is_ignored_by_featuremap(self, capsys, tmp_path,
                                                               white_image):
        # only match adds the reference oscillator and reads a lock
        plain, configured = runs_without_and_with_config(
            capsys, tmp_path, {"reference_oscillator": True}, "featuremap",
            white_image, "--seeds", "0,1", "--t-end", "20",
        )
        assert plain == configured
        assert plain[0] == 0 and sorted(plain[3]) == ["onn_map.csv", "oracle_map.csv"]

    def test_unknown_config_field(self, capsys, tmp_path, white_image):
        # include_self_in_sum is no setting: every run couples through the self-inclusive mean
        # field; the DOM window, the lock-time threshold and the lock tolerance are fixed
        # readouts; a run records every step; the DOM readout, the trailing mean envelope, has
        # no settings; the carrier omega0 is the unit of frequency
        cfg = tmp_path / "cfg.json"
        for config, key, command in [
            ({"bogus": True}, "bogus", ["match", white_image]),
            ({"include_self_in_sum": True}, "include_self_in_sum", ["match", white_image]),
            ({"include_self_in_sum": True}, "include_self_in_sum", ["sweep-locking"]),
            ({"dom_threshold_fraction": 0.8}, "dom_threshold_fraction", ["match", white_image]),
            ({"trailing_fraction": 0.2}, "trailing_fraction", ["match", white_image]),
            ({"stride": 1}, "stride", ["match", white_image]),
            ({"dom_policy": {"method": "sample_peak_detector", "sample_time": 30.0}},
             "dom_policy", ["match", white_image]),
            ({"dom_policy": {}}, "dom_policy", ["featuremap", white_image]),
            ({"spread_tol": 0.1}, "spread_tol", ["match", white_image]),
            ({"spread_tol": 0.1}, "spread_tol", ["sweep-locking"]),
            ({"omega0": 1.2}, "omega0", ["match", white_image]),
            ({"omega0": 1.2}, "omega0", ["featuremap", white_image]),
            ({"omega0": 1.2}, "omega0", ["sweep-locking"]),
        ]:
            cfg.write_text(json.dumps(config))
            code, _, err = run_cli(capsys, *command, "--config", str(cfg))
            assert_one_line_error(code, err)
            assert f"unknown field {key!r}" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_jobs_is_not_an_option(self, capsys, tmp_path, white_image, source):
        if source == "flag":
            argv = ["--jobs", "2"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"jobs": 2}))
            argv = ["--config", str(cfg)]
        code, out, err = run_cli(capsys, "match", white_image, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "jobs" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    # the DOM window, the lock-time threshold and the lock tolerance are fixed readouts,
    # a run records every step, DOM is read one way, off the envelope, and the carrier
    # omega0 is the unit of frequency: none of them is a setting
    @pytest.mark.parametrize("command", ["match", "featuremap", "sweep-locking"])
    @pytest.mark.parametrize("flag, value", [("--dom-threshold", "0.8"),
                                             ("--trailing-fraction", "0.2"),
                                             ("--stride", "3"),
                                             ("--dom-method", "sample_peak_detector"),
                                             ("--sample-time", "30"),
                                             ("--spread-tol", "0.1"),
                                             ("--omega0", "1.2")])
    def test_retired_readout_flags_are_not_options(self, capsys, white_image, command, flag,
                                                   value):
        image = [] if command == "sweep-locking" else [white_image]
        code, _, err = run_cli(capsys, command, *image, flag, value)
        assert_one_line_error(code, err)
        assert f"unrecognized arguments: {flag} {value}" in err

    def test_invalid_json(self, capsys, tmp_path, white_image):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{")
        code, _, err = run_cli(capsys, "match", white_image, "--config", str(cfg))
        assert code == 1
        assert "invalid JSON" in err

    def test_bank_entry_validation(self, capsys, tmp_path, white_image):
        bank_file = tmp_path / "bank.json"
        bank_file.write_text(json.dumps([{"theta_deg": 0}]))
        code, _, err = run_cli(
            capsys, "match", white_image, "--bank", str(bank_file), *MATCH_FAST
        )
        assert code == 1
        assert "missing field 'k'" in err
        bank_file.write_text(json.dumps([{"theta_deg": 0, "k": 0.2, "width": 3}]))
        code, _, err = run_cli(
            capsys, "match", white_image, "--bank", str(bank_file), *MATCH_FAST
        )
        assert code == 1
        assert "unknown field 'width'" in err

    def test_bad_seeds_flag(self, capsys, tmp_path, white_image):
        code, _, err = run_cli(capsys, "match", white_image, "--seeds", "x")
        assert code == 1
        assert "--seeds" in err

    def test_seed_range_syntax(self, capsys, tmp_path, white_image):
        bank_file = tmp_path / "bank.json"
        bank_file.write_text(json.dumps([{"theta_deg": 0, "k": 0.2}]))
        out_dir = tmp_path / "r"
        code, _, _ = run_cli(
            capsys, "match", white_image, "--bank", str(bank_file),
            "--seeds", "0:3", "--t-end", "100", "--out-dir", str(out_dir),
        )
        assert code == 0
        rows = read_rows(out_dir / "report.csv")
        assert len(rows) == 2

    def test_a_seed_range_stays_a_range(self):
        # checked by its first seed, a range reaches the block cap unbuilt
        seeds = oscconv.cli._parse_seeds("0:16000000")
        assert seeds == range(16000000)
        check, _, _ = oscconv.cli._SETTINGS["seeds"]
        assert check(seeds, "seeds") is seeds

    @pytest.mark.parametrize("seeds, message", [
        pytest.param("0:16000000", "16000000 seeds would record", id="past-cap"),
        # too long for len()
        pytest.param("0:100000000000000000000", "expects 'a,b,c' or 'start:stop'",
                     id="past-len"),
    ])
    def test_an_oversized_seed_range_is_one_line(self, capsys, white_image, seeds, message):
        code, _, err = run_cli(capsys, "match", white_image, "--seeds", seeds)
        assert_one_line_error(code, err)
        assert message in err


SEEDS_PAST_CAP = ("error: 5000 seeds would record 17510000 values, more than 2**24; "
                  "use fewer seeds, raise dt or lower t_end\n")

# rejected inputs whose error line must name what to change, by test id
BLAMED = {
    "sweep-negative-epsilon": "epsilon must be >= 0 and finite, got -1",
    "sweep-zero-epsilon": "epsilon is 0, and so is the lock tolerance; set epsilon above 0",
    "sweep-negative-spread-tol": "unrecognized arguments: --spread-tol -1",
    "sweep-grid-negative": "detunings must be >= 0",
    "match-delta-omega-overflows-dt": "delta_omega=2e+306 makes 50*(1 + 2*delta_omega) overflow",
    "match-delta-omega-overflows-omega-max":
        "delta_omega=1e+308 makes 50*(1 + 2*delta_omega) overflow",
    "match-delta-omega-overflows-omega-max-given-dt":
        "delta_omega=1e+308 makes 50*(1 + 2*delta_omega) overflow",
    "match-delta-omega-overflows-epsilon":
        "delta_omega=1e+308 makes 50*(1 + 2*delta_omega) overflow",
}


class TestMalformedValues:
    """Each malformed value exits 1 with one line on stderr, never a traceback."""

    @pytest.mark.parametrize("config, argv", [
        pytest.param({"t_end": "abc"}, ["--seeds", "0"], id="t_end-string"),
        pytest.param({"side": "5"}, ["--t-end", "2", "--seeds", "0"], id="side-string"),
        pytest.param({"seeds": [-1]}, ["--t-end", "2"], id="seeds-negative"),
        pytest.param({}, ["--t-end", "2", "--seeds=-1"], id="seeds-flag-negative"),
        pytest.param({"seeds": [1.5]}, ["--t-end", "2"], id="seeds-fraction"),
        pytest.param({"side": True}, ["--t-end", "2", "--seeds", "0"], id="side-boolean"),
        pytest.param(
            {"bank": [{"theta_deg": 0, "k": "x"}]}, ["--t-end", "2", "--seeds", "0"],
            id="bank-inline-k-string",
        ),
        # the lock tolerance is no setting: its retired key is refused whatever its value
        pytest.param({"spread_tol": "3"}, ["--t-end", "2", "--seeds", "0"], id="spread_tol-string"),
        pytest.param({"rho": float("nan")}, ["--t-end", "2", "--seeds", "0"], id="rho-nan"),
    ])
    def test_config_value(self, capsys, tmp_path, white_image, one_filter_bank, config, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        bank = [] if "bank" in config else ["--bank", one_filter_bank]
        code, _, err = run_cli(
            capsys, "match", white_image, "--config", str(cfg), *bank, *argv,
            "--out-dir", str(tmp_path / "o"),
        )
        assert_one_line_error(code, err)

    def test_bank_file_entry(self, capsys, tmp_path, white_image):
        bank_file = tmp_path / "bank.json"
        bank_file.write_text(json.dumps([{"theta_deg": 0, "k": "x"}]))
        code, _, err = run_cli(
            capsys, "match", white_image, "--bank", str(bank_file), "--t-end", "2",
            "--seeds", "0", "--out-dir", str(tmp_path / "o"),
        )
        assert_one_line_error(code, err)

    @pytest.mark.parametrize("argv", [
        pytest.param(["match", "IMAGE", "--t-end", "nan", "--seeds", "0", "--out-dir", "OUT"],
                     id="match-t_end"),
        pytest.param(["hw", "--i-drv", "nan", "--vcc", "0.8", "--freq", "6e9",
                      "--c-coup", "1e-15"], id="hw-i_drv"),
        pytest.param(["sweep-locking", "--epsilon", "nan", "--grid", "0:0.01:0.01",
                      "--t-end", "50", "--out-dir", "OUT"], id="sweep-epsilon"),
    ])
    def test_nan_flag(self, capsys, tmp_path, white_image, argv):
        paths = {"IMAGE": white_image, "OUT": str(tmp_path / "o")}
        code, _, err = run_cli(capsys, *(paths.get(a, a) for a in argv))
        assert_one_line_error(code, err)

    # each exits 1 with one line; filterwarnings turns a numpy warning,
    # which would print a second stderr line, into a failure
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        pytest.param(["match", "IMAGE", "--dt", "1e-12", "--seeds", "0"], id="match-tiny-dt"),
        pytest.param(["featuremap", "IMAGE", "--theta-deg", "nan", "--k", "0.2", "--seeds", "0"],
                     id="featuremap-theta-nan"),
        pytest.param(["featuremap", "IMAGE", "--theta-deg", "inf", "--k", "0.2", "--seeds", "0"],
                     id="featuremap-theta-inf"),
        pytest.param(["featuremap", "IMAGE", "--theta-deg", "0", "--k", "inf", "--seeds", "0"],
                     id="featuremap-k-inf"),
        pytest.param(["featuremap", "IMAGE", "--theta-deg", "0", "--k", "0.2", "--phase", "nan",
                      "--seeds", "0"], id="featuremap-phase-nan"),
        # a side far beyond the image is rejected before a filter of that side is built
        pytest.param(["match", "IMAGE", "--side", "1000000", "--seeds", "0"],
                     id="match-huge-side"),
        pytest.param(["featuremap", "IMAGE", "--side", "1000000", "--seeds", "0"],
                     id="featuremap-huge-side"),
        pytest.param(["featuremap", "IMAGE", "--side", "1000000", "--theta-deg", "0", "--k", "0.2",
                      "--seeds", "0"], id="featuremap-filter-huge-side"),
        # a block of runs far beyond the recording cap (about 34 GB and 41 GB) is
        # rejected before it is allocated
        pytest.param(["match", "IMAGE", "--seeds", "0:1000", "--t-end", "70000"],
                     id="match-huge-block"),
        pytest.param(["sweep-locking", "--grid", "0:0.2:0.000001"], id="sweep-huge-block"),
        # a non-finite grid value, or a grid or seed range of more than 2**24 rows,
        # is rejected before the rows are built
        pytest.param(["sweep-locking", "--grid", "0:1e300:1e-300"], id="sweep-grid-overflow"),
        pytest.param(["sweep-locking", "--grid", "nan:1:0.1"], id="sweep-grid-nan-start"),
        pytest.param(["sweep-locking", "--grid", "0:nan:0.1"], id="sweep-grid-nan-stop"),
        pytest.param(["sweep-locking", "--grid", "0:1e12:1e-6"], id="sweep-grid-huge"),
        pytest.param(["sweep-locking", "--grid", "0:1:inf"], id="sweep-grid-inf-step"),
        pytest.param(["sweep-locking", "--grid", "1e308:1.7e308:1.2e308"],
                     id="sweep-grid-point-overflows"),
        # a grid that starts with a minus sign is a value, not a flag
        pytest.param(["sweep-locking", "--grid", "-0.2:-0.1:0.1"], id="sweep-grid-negative"),
        pytest.param(["match", "IMAGE", "--seeds", "0:10000000000"], id="match-huge-seed-range"),
        # 50 * omega_max, omega_max = 1 + 2*delta_omega, overflows, or omega_max does,
        # and the default dt would be 0: the error names delta_omega, not a dt that was
        # never set or an omega_max that no setting names, and so it does with dt set
        pytest.param(["match", "IMAGE", "--delta-omega", "2e306", "--epsilon", "0.1",
                      "--seeds", "0"], id="match-delta-omega-overflows-dt"),
        pytest.param(["match", "IMAGE", "--delta-omega", "1e308", "--epsilon", "0.1",
                      "--seeds", "0"], id="match-delta-omega-overflows-omega-max"),
        pytest.param(["match", "IMAGE", "--delta-omega", "1e308", "--epsilon", "0.1",
                      "--dt", "0.1", "--seeds", "0"],
                     id="match-delta-omega-overflows-omega-max-given-dt"),
        # 3 * delta_omega overflows: the error names delta_omega, not an epsilon never set
        pytest.param(["match", "IMAGE", "--delta-omega", "1e308", "--seeds", "0"],
                     id="match-delta-omega-overflows-epsilon"),
        # a side of 400 digits parses, and is rejected against the image
        pytest.param(["match", "IMAGE", "--side", "9" * 400, "--seeds", "0"],
                     id="match-side-400-digits"),
        # the flag checks only that a side is an integer; the library rejects 0
        pytest.param(["featuremap", "IMAGE", "--side", "0", "--t-end", "20", "--seeds", "0"],
                     id="featuremap-side-zero"),
        # --phase and --raw-filter shape a single filter, never a bank filter
        pytest.param(["featuremap", "IMAGE", "--phase", "1", "--seeds", "0"],
                     id="featuremap-phase-without-filter"),
        pytest.param(["featuremap", "IMAGE", "--raw-filter", "--seeds", "0"],
                     id="featuremap-raw-filter-without-filter"),
        # --filter-index picks a bank filter, which --theta-deg --k replace
        pytest.param(["featuremap", "IMAGE", "--filter-index", "99", "--theta-deg", "0", "--k",
                      "0.2", "--seeds", "0"], id="featuremap-filter-index-with-filter"),
        # a grating phase that overflows a float is rejected before np.cos
        # turns it into NaN, which binarizes to -1 or makes omega non-finite
        pytest.param(["featuremap", "IMAGE", "--theta-deg", "0", "--k", "1e308", "--seeds", "0",
                      "--t-end", "20"], id="featuremap-k-overflows-the-phase"),
        pytest.param(["featuremap", "IMAGE", "--theta-deg", "0", "--k", "1e308", "--raw-filter",
                      "--seeds", "0", "--t-end", "20"], id="featuremap-raw-filter-k-overflows"),
        pytest.param(["featuremap", "IMAGE", "--theta-deg", "0", "--k", "1e307", "--phase",
                      "1.7e308", "--seeds", "0", "--t-end", "20"],
                     id="featuremap-phase-overflows-the-phase"),
        pytest.param(["match", "IMAGE", "--bank", "HUGE_K_BANK", "--seeds", "0", "--t-end", "20"],
                     id="match-bank-k-overflows-the-phase"),
        # the sweep's coupling is checked before its gap tolerance is derived from it
        pytest.param(["sweep-locking", "--epsilon", "-1", "--grid", "0:0.2:0.1", "--t-end", "20"],
                     id="sweep-negative-epsilon"),
        pytest.param(["sweep-locking", "--epsilon", "0", "--grid", "0:0.2:0.1", "--t-end", "20"],
                     id="sweep-zero-epsilon"),
        # the lock tolerance is no setting
        pytest.param(["sweep-locking", "--spread-tol", "-1", "--grid", "0:0.2:0.1", "--t-end",
                      "20"], id="sweep-negative-spread-tol"),
    ])
    def test_rejected_input(self, request, capsys, tmp_path, white_image, argv):
        huge_k_bank = tmp_path / "huge_k_bank.json"
        huge_k_bank.write_text(json.dumps([{"theta_deg": 0, "k": 1e308}]))
        paths = {"IMAGE": white_image, "HUGE_K_BANK": str(huge_k_bank)}
        code, _, err = run_cli(
            capsys, *(paths.get(a, a) for a in argv), "--out-dir", str(tmp_path / "o")
        )
        assert_one_line_error(code, err)
        assert BLAMED.get(request.node.callspec.id, "") in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args", [
        pytest.param(["--n", "9" * 400], id="n-400-digits"),
        pytest.param(["--n-filters", "9" * 400], id="n_filters-400-digits"),
        pytest.param(["--i-drv", "1e-300", "--vcc", "1e300", "--freq", "1e300", "--c-coup", "1e300"],
                     id="locking-range-overflows"),
    ])
    def test_hw_overflow(self, capsys, args):
        base = ["--i-drv", "0.26e-3", "--vcc", "0.8", "--freq", "6e9", "--c-coup", "1e-15"]
        code, _, err = run_cli(capsys, "hw", *base, *args)
        assert_one_line_error(code, err)

    @pytest.mark.parametrize("argv, message", [
        # the lock tolerance is no setting, and a scale of 0 would make it 0, which
        # would read every row as unlocked
        pytest.param(["match", "FRAGMENT", "--spread-tol", "-1"],
                     "error: unrecognized arguments: --spread-tol -1\n", id="tol-neg"),
        pytest.param(["sweep-locking", "--epsilon", "0"],
                     "error: epsilon is 0, and so is the lock tolerance; set epsilon above 0\n",
                     id="tol-0"),
        pytest.param(["match", "FRAGMENT", "--delta-omega", "0"],
                     "error: delta_omega is 0, and so is the lock tolerance; "
                     "set delta_omega above 0\n", id="delta-0"),
        # the lock readouts need 3 samples: the config takes no 1-step run
        pytest.param(["match", "FRAGMENT", "--t-end", "0.1", "--dt", "0.1"],
                     "t_end=0.1 and dt=0.1 make 1 step; a run needs 2 or more\n", id="1-step"),
        # 5,000 runs of 3,502 samples, or 2,001 sweep points of 10,505: past the
        # block cap, before any window's, filter's or point's run
        pytest.param(["featuremap", "GRATING", "--seeds", "0:5000"], SEEDS_PAST_CAP, id="cap"),
        pytest.param(["match", "FRAGMENT", "--seeds", "0:5000"], SEEDS_PAST_CAP, id="cap-match"),
        pytest.param(["sweep-locking", "--grid", "0:0.2:0.0001"],
                     "error: 2001 sweep points would record 21020505 values, more than 2**24; "
                     "use fewer sweep points, raise dt or lower t_end\n", id="cap-sweep"),
    ])
    def test_a_readout_setting_is_rejected_before_the_first_run(self, capsys, tmp_path,
                                                               monkeypatch, argv, message):
        def never(*args, **kwargs):
            raise AssertionError("integrate was called")

        monkeypatch.setattr(oscconv.inference, "integrate", never)
        inputs = Path(__file__).parent / "golden" / "inputs"
        paths = {"FRAGMENT": str(inputs / "fragment.pgm"), "GRATING": str(inputs / "grating7.pgm")}
        code, _, err = run_cli(capsys, *(paths.get(a, a) for a in argv),
                               "--out-dir", str(tmp_path / "o"))
        assert_one_line_error(code, err)
        assert message in err

    def test_zero_delta_omega_names_delta_omega(self, capsys, tmp_path, white_image,
                                                one_filter_bank):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta_omega": 0}))
        argv = ["match", white_image, "--config", str(cfg), "--bank", one_filter_bank,
                "--seeds", "0", "--t-end", "20", "--out-dir", str(tmp_path / "o")]
        code, _, err = run_cli(capsys, *argv)
        assert_one_line_error(code, err)
        assert "delta_omega is 0, and so is the lock tolerance; set delta_omega above 0" in err
        code, _, err = run_cli(capsys, *argv, "--delta-omega", "0.01")
        assert code == 0 and err == ""

    # the lock readouts need 3 samples: every command refuses a run of 1 step,
    # before any run, and runs one of 2 steps
    @pytest.mark.parametrize("argv", [
        pytest.param(["match", "FRAGMENT", "--seeds", "0,1"], id="match"),
        pytest.param(["sweep-locking"], id="sweep"),
        pytest.param(["featuremap", "GRATING", "--seeds", "0"], id="featuremap"),
    ])
    def test_two_samples_are_too_few_to_read_a_lock(self, capsys, tmp_path, monkeypatch, argv):
        inputs = Path(__file__).parent / "golden" / "inputs"
        paths = {"FRAGMENT": str(inputs / "fragment.pgm"), "GRATING": str(inputs / "grating7.pgm")}
        argv = [paths.get(a, a) for a in argv] + ["--dt", "0.1", "--out-dir", str(tmp_path / "o")]

        def never(*args, **kwargs):
            raise AssertionError("integrate was called")

        with monkeypatch.context() as patch:
            patch.setattr(oscconv.inference, "integrate", never)
            code, _, err = run_cli(capsys, *argv, "--t-end", "0.1")
        assert (code, err) == (1, "error: t_end=0.1 and dt=0.1 make 1 step; "
                                  "a run needs 2 or more\n")
        code, _, err = run_cli(capsys, *argv, "--t-end", "0.2")
        assert (code, err) == (0, "")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        pytest.param(["match", "FRAGMENT", "--seeds", "0", "--rho", "1e308"], id="match-rho"),
        pytest.param(["match", "FRAGMENT", "--seeds", "0", "--epsilon", "1e10"], id="match-epsilon"),
        pytest.param(["sweep-locking", "--grid", "0:0.1:0.05", "--epsilon", "1e300"],
                     id="sweep-epsilon"),
    ])
    def test_an_overflowing_step_is_one_numeric_line(self, capsys, tmp_path, argv):
        fragment = str(Path(__file__).parent / "golden" / "inputs" / "fragment.pgm")
        code, _, err = run_cli(capsys, *(fragment if a == "FRAGMENT" else a for a in argv),
                               "--t-end", "20", "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("numeric error:") and err.count("\n") == 1


# the text csv gives each kind of cell, locale-independent and round-trip exact
CELL_TEXT = [
    (None, ""), (0, "0"), ("a,b", '"a,b"'), (0.1, "0.1"), (-0.0, "-0.0"), (1e-05, "1e-05"),
    (1e16, "1e+16"), (5e-324, "5e-324"), (math.nan, "nan"), (math.inf, "inf"),
]


@pytest.mark.parametrize("value, text", CELL_TEXT)
def test_csv_cell_text(tmp_path, value, text):
    path = tmp_path / "cells.csv"
    oscconv.cli._write_csv(path, ["a", "b"], [[7, value]])
    assert path.read_text() == f"a,b\n7,{text}\n"


@pytest.mark.parametrize("value, text", [(v, t) for v, t in CELL_TEXT if isinstance(v, float)])
def test_float_csv_cell_text(tmp_path, value, text):
    path = tmp_path / "cells.csv"
    columns = [oscconv.cli._cells(np.array([x])) for x in (7.0, value)]
    oscconv.cli._write_float_csv(path, ["a", "b"], columns)
    assert path.read_text() == f"a,b\n7.0,{text}\n"


# every float, with the ones whose text differs in kind drawn often
FLOAT_CELLS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-05]), st.floats()
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=st.integers(0, 6).flatmap(lambda rows: st.lists(
    st.lists(FLOAT_CELLS, min_size=rows, max_size=rows), min_size=1, max_size=5
)))
def test_float_csv_writes_the_bytes_of_csv(tmp_path, columns):
    header = [f"c{j}" for j in range(len(columns))]
    cells = [oscconv.cli._cells(np.array(col, dtype=np.float64)) for col in columns]
    oscconv.cli._write_float_csv(tmp_path / "float.csv", header, cells)
    oscconv.cli._write_csv(tmp_path / "csv.csv", header, list(zip(*columns)))
    assert (tmp_path / "float.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()


# Every config key, and values of the wrong JSON type, non-finite or negative
CONFIG_KEYS = (
    "rho", "delta_omega", "epsilon", "dt", "t_end",
    "seed", "side", "seeds",
    "reference_oscillator", "bank",
)
BAD_VALUES = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-9, allow_infinity=False),
)


class TestConfigFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=st.dictionaries(st.sampled_from(CONFIG_KEYS), BAD_VALUES, max_size=4))
    def test_main_never_raises(self, capsys, tmp_path, white_image, one_filter_bank, config):
        cfg = tmp_path / "fuzz.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(
            capsys, "match", white_image, "--config", str(cfg), "--t-end", "2",
            "--seeds", "0", "--bank", one_filter_bank, "--out-dir", str(tmp_path / "o"),
        )
        assert code in (0, 1, 2)
        if code == 1:
            assert_one_line_error(code, err)


# a list nested 100,000 deep: json.loads passes the recursion limit on it
DEEP_LIST = "[" * 100_000 + "]" * 100_000


def assert_one_line_naming(code, err, *names):
    """One `error: ` line, exit 1, that names each of names."""
    assert_one_line_error(code, err)
    assert err.startswith("error: ")
    for name in names:
        assert str(name) in err


class TestOneLineFailures:
    """An output that cannot be made or written, a closed stdout, and JSON nested
    past the recursion limit, exit 1 with one line like any other bad input."""

    # stdout on a pipe is block-buffered unless PYTHONUNBUFFERED is set, so the
    # write to a closed one fails at the flush, after the command has returned
    @pytest.mark.parametrize("argv, unbuffered", [
        pytest.param(["hw", "--i-drv", "0.26e-3", "--vcc", "0.8", "--freq", "6e9",
                      "--c-coup", "1e-15"], False, id="hw"),
        pytest.param(["hw", "--i-drv", "0.26e-3", "--vcc", "0.8", "--freq", "6e9",
                      "--c-coup", "1e-15"], True, id="hw-unbuffered"),
        pytest.param(["sweep-locking", "--t-end", "20", "--out-dir", "OUT"], False,
                     id="sweep-locking"),
        pytest.param(["match", str(GOLDEN_INPUTS / "fragment.pgm"), "--seeds", "0",
                      "--t-end", "20", "--out-dir", "OUT"], False, id="match"),
    ])
    def test_a_closed_stdout(self, tmp_path, argv, unbuffered):
        src = str(Path(oscconv.cli.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            argv = [str(tmp_path / "o") if a == "OUT" else a for a in argv]
            run = subprocess.run([sys.executable, "-m", "oscconv.cli", *argv], stdout=write_end,
                                 stderr=subprocess.PIPE, env=env, text=True)
        finally:
            os.close(write_end)
        assert_one_line_naming(run.returncode, run.stderr, "stdout is closed")

    # the directory is made after the command's own input checks, before any run
    @pytest.mark.parametrize("argv, runs, under", [
        pytest.param(["match", "IMAGE", "--bank", "BANK", "--seeds", "0"], "match_filters", False,
                     id="a-file"),
        pytest.param(["match", "IMAGE", "--bank", "BANK", "--seeds", "0"], "match_filters", True,
                     id="under-a-file"),
        pytest.param(["featuremap", "IMAGE", "--seeds", "0"], "feature_map_onn", False,
                     id="featuremap-a-file"),
        pytest.param(["featuremap", "IMAGE", "--seeds", "0"], "feature_map_onn", True,
                     id="featuremap-under-a-file"),
        pytest.param(["sweep-locking", "--grid", "0:0.1:0.05"], "sweep_locking", False,
                     id="sweep-locking-a-file"),
        pytest.param(["sweep-locking", "--grid", "0:0.1:0.05"], "sweep_locking", True,
                     id="sweep-locking-under-a-file"),
    ])
    def test_an_out_dir_that_cannot_be_made(self, capsys, monkeypatch, tmp_path, white_image,
                                            one_filter_bank, argv, runs, under):
        def never(*args, **kwargs):
            raise AssertionError(f"{runs} ran before the output directory was made")

        monkeypatch.setattr(oscconv.cli, runs, never)
        out_dir = tmp_path / "file"
        out_dir.write_text("")
        if under:
            out_dir = out_dir / "sub"
        paths = {"IMAGE": white_image, "BANK": one_filter_bank}
        code, _, err = run_cli(capsys, *(paths.get(a, a) for a in argv), "--t-end", "20",
                               "--out-dir", str(out_dir))
        assert_one_line_naming(code, err, out_dir)

    @pytest.mark.parametrize("argv, name", [
        (["match", "IMAGE", "--seeds", "0"], "report.csv"),
        (["featuremap", "IMAGE", "--seeds", "0"], "onn_map.csv"),
        (["sweep-locking", "--grid", "0:0.1:0.05"], "sweep.csv"),
    ], ids=["match", "featuremap", "sweep-locking"])
    def test_a_csv_path_that_is_a_directory(self, capsys, tmp_path, white_image, argv, name):
        (tmp_path / name).mkdir()
        argv = [white_image if arg == "IMAGE" else arg for arg in argv]
        code, _, err = run_cli(capsys, *argv, "--t-end", "20", "--out-dir", str(tmp_path))
        assert_one_line_naming(code, err, tmp_path / name)

    def test_a_trace_file_of_a_forked_share_that_is_a_directory(self, capsys, tmp_path,
                                                                 white_image, use_cpus):
        # two filters on 2 CPUs: the calling process writes trace 00, a child trace 01
        bank_file = tmp_path / "bank.json"
        bank_file.write_text(json.dumps([{"theta_deg": 0, "k": 0.2}, {"theta_deg": 90, "k": 0.2}]))
        (tmp_path / "trace_filter_01.csv").mkdir()
        use_cpus(2)
        code, _, err = run_cli(capsys, "match", white_image, "--bank", str(bank_file),
                               "--seeds", "0", "--t-end", "20", "--dump-traces",
                               "--out-dir", str(tmp_path))
        assert_one_line_naming(code, err, tmp_path / "trace_filter_01.csv")
        assert (tmp_path / "trace_filter_00.csv").is_file()

    @pytest.mark.parametrize("flag, text, what", [
        ("--bank", DEEP_LIST, "bank file"),
        ("--config", '{"bank": ' + DEEP_LIST + "}", "config file"),
    ], ids=["bank", "config"])
    def test_json_nested_past_the_recursion_limit(self, capsys, tmp_path, white_image,
                                                  flag, text, what):
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "match", white_image, flag, str(path), "--seeds", "0",
                               "--t-end", "20", "--out-dir", str(tmp_path / "o"))
        assert_one_line_naming(code, err, f"{what} {path}: invalid JSON: maximum recursion depth")


class TestSweep:
    def test_sweep_csv_and_boundary(self, capsys, tmp_path):
        out_dir = tmp_path / "s"
        code, out, _ = run_cli(
            capsys, "sweep-locking", "--epsilon", "0.05",
            "--grid", "0:0.12:0.06", "--t-end", "400", "--out-dir", str(out_dir),
        )
        assert code == 0
        rows = read_rows(out_dir / "sweep.csv")
        assert rows[0] == ["detuning", "locked", "final_freq_gap", "beat_amplitude"]
        assert len(rows) == 4
        assert [r[1] for r in rows[1:]] == ["1", "1", "0"]
        assert "locking boundary: 0.06" in out

    def test_a_sweep_past_2048_points_takes_two_calls(self, capsys, tmp_path, monkeypatch,
                                                     process_log, use_cpus):
        def counting(omega, *args, **kwargs):
            # a share's rows, keyed by its first detuning
            process_log.append((omega[0, 1] - omega[0, 0], len(omega)))
            return integrate(omega, *args, **kwargs)

        def rows():
            return [count for _, count in sorted(process_log.pop())]

        monkeypatch.setattr(oscconv.inference, "integrate", counting)
        argv = ["sweep-locking", "--grid", "0:0.25:0.0001", "--t-end", "20", "--out-dir"]
        # the calls of 2,048 and 453 detunings, each split into a share per CPU
        # (at most one per 300 oscillator states)
        split = {1: [2048, 453], 2: [1024, 1024, 226, 227], 3: [682, 683, 683, 151, 151, 151]}
        # the same 2,501 points in one call
        whole = {1: [2501], 2: [1250, 1251], 3: [833, 834, 834]}
        for cpus in (1, 2, 3):
            use_cpus(cpus)
            monkeypatch.setattr(oscconv.inference, "_CALL_STATES", 2**12)
            assert run_cli(capsys, *argv, str(tmp_path / f"split{cpus}"))[0] == 0
            assert rows() == split[cpus]
            monkeypatch.setattr(oscconv.inference, "_CALL_STATES", 2 * 2501)
            assert run_cli(capsys, *argv, str(tmp_path / f"one{cpus}"))[0] == 0
            assert rows() == whole[cpus]
            for name in (f"split{cpus}", f"one{cpus}"):
                assert (tmp_path / name / "sweep.csv").read_bytes() == (
                    tmp_path / "split1" / "sweep.csv").read_bytes()

    def test_no_locked_points(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "sweep-locking", "--epsilon", "0.01",
            "--grid", "0.15:0.2:0.05", "--t-end", "200",
            "--out-dir", str(tmp_path / "s2"),
        )
        assert code == 0
        assert "no locked point" in out

    def test_an_oversized_grid_is_rejected_before_it_is_built(self, capsys, tmp_path,
                                                              monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("sweep_locking was called")

        monkeypatch.setattr(oscconv.cli, "sweep_locking", never)
        # 10,000,001 points: the grid alone would take 80 MB
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, "sweep-locking", "--grid", "0:0.2:0.00000002",
                                   "--out-dir", str(tmp_path / "s"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_one_line_error(code, err)
        assert err == ("error: 10000001 sweep points would record 105050010505 values, "
                       "more than 2**24; use fewer sweep points, raise dt or lower t_end\n")
        assert peak < 16e6

    def test_bad_grid(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep-locking", "--grid", "0.2:0.1:0.05")
        assert code == 1
        assert "--grid" in err

    def test_config_file_equals_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.01, "t_end": 50}))
        grid = ("--grid", "0:0.02:0.01")
        code_file, _, _ = run_cli(
            capsys, "sweep-locking", "--config", str(cfg), *grid,
            "--out-dir", str(tmp_path / "file"),
        )
        code_flags, _, _ = run_cli(
            capsys, "sweep-locking", "--epsilon", "0.01", "--t-end", "50", *grid,
            "--out-dir", str(tmp_path / "flags"),
        )
        assert code_file == code_flags == 0
        assert (tmp_path / "file" / "sweep.csv").read_bytes() == (
            tmp_path / "flags" / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("config, argv, expected", [
        pytest.param({}, [], (0.05, 1200.0, 0), id="defaults"),
        pytest.param({"epsilon": 0.01, "t_end": 50}, [], (0.01, 50.0, 0), id="file"),
        pytest.param({"epsilon": 0.01, "t_end": 50}, ["--t-end", "40"], (0.01, 40.0, 0),
                     id="flag-beats-file"),
        pytest.param({"seed": 3}, [], (0.05, 1200.0, 3), id="seed"),
    ])
    def test_epsilon_and_t_end_layering(
        self, capsys, tmp_path, monkeypatch, config, argv, expected
    ):
        received = []

        # one call a command; the span of the config it runs with, its default included
        def recorder(epsilon, detunings, *, seed, **array):
            cfg = oscconv.inference._sweep_config(epsilon, detunings.size, detunings.min(),
                                                  detunings.max(), **array)
            received.append((cfg.epsilon, cfg.t_end, seed))
            return ()

        monkeypatch.setattr(oscconv.cli, "sweep_locking", recorder)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, _ = run_cli(
            capsys, "sweep-locking", "--config", str(cfg), *argv,
            "--out-dir", str(tmp_path / "s"),
        )
        assert code == 0
        assert received == [expected]

    def test_divergence_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep-locking", "--epsilon", "0.5", "--rho", "1e-3",
            "--grid", "0:0.01:0.01", "--t-end", "50",
            "--out-dir", str(tmp_path / "s3"),
        )
        assert code == 2
        assert "numeric error:" in err


class TestFeaturemap:
    def test_single_window_maps(self, capsys, tmp_path, planted_image):
        out_dir = tmp_path / "fm"
        code, out, _ = run_cli(
            capsys, "featuremap", planted_image,
            "--theta-deg", "0", "--k", "0.2",
            "--seeds", "0", "--t-end", "200", "--out-dir", str(out_dir),
        )
        assert code == 0
        onn = read_rows(out_dir / "onn_map.csv")
        oracle = read_rows(out_dir / "oracle_map.csv")
        assert onn[0] == ["c0"] and oracle[0] == ["c0"]
        assert len(onn) == 2 and len(oracle) == 2
        assert float(oracle[1][0]) == 25.0
        assert float(onn[1][0]) > 0.9
        assert "rows=1 cols=1 windows=1 errors=0" in out

    def test_one_oscillator_map_has_no_pearson(self, capsys, tmp_path):
        # every window's DOM is the same limit-cycle amplitude, up to step error
        grating = str(Path(__file__).parent / "golden" / "inputs" / "grating7.pgm")
        out_dir = tmp_path / "side1"
        code, out, _ = run_cli(capsys, "featuremap", grating, "--side", "1", "--seeds", "0",
                               "--t-end", "20", "--out-dir", str(out_dir))
        assert code == 0
        assert out.startswith("pearson=nan rows=7 cols=7 windows=49 errors=0")
        onn = np.array(read_rows(out_dir / "onn_map.csv")[1:], dtype=float)
        assert onn.shape == (7, 7) and np.ptp(onn) < 1e-5

    def test_bank_index_selection(self, capsys, tmp_path, planted_image):
        code, _, _ = run_cli(
            capsys, "featuremap", planted_image, "--filter-index", "17",
            "--seeds", "0", "--t-end", "100", "--out-dir", str(tmp_path / "fm2"),
        )
        assert code == 0
        code, _, err = run_cli(
            capsys, "featuremap", planted_image, "--filter-index", "18",
            "--seeds", "0", "--out-dir", str(tmp_path / "fm3"),
        )
        assert code == 1
        assert "--filter-index" in err

    def test_filter_flags_read_as_a_one_entry_bank(self, capsys, tmp_path):
        grating = str(Path(__file__).parent / "golden" / "inputs" / "grating7.pgm")
        bank_file = tmp_path / "bank.json"
        bank_file.write_text(json.dumps(
            [{"theta_deg": 30, "k": 0.35, "phase": 1.5708, "binarized": False}]))
        run = ("featuremap", grating, "--seeds", "0,1", "--t-end", "40")
        flags = run_cli(capsys, *run, "--theta-deg", "30", "--k", "0.35", "--phase", "1.5708",
                        "--raw-filter", "--out-dir", str(tmp_path / "flags"))
        bank = run_cli(capsys, *run, "--bank", str(bank_file), "--out-dir", str(tmp_path / "bank"))
        assert flags == bank and flags[0] == 0
        for name in ("onn_map.csv", "oracle_map.csv"):
            assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "bank" / name).read_bytes()

    def test_theta_and_k_required_together(self, capsys, tmp_path, planted_image):
        code, _, err = run_cli(capsys, "featuremap", planted_image, "--theta-deg", "30")
        assert code == 1
        assert "together" in err

    def test_divergence_exits_2(self, capsys, tmp_path, planted_image):
        out_dir = tmp_path / "fm4"
        code, _, err = run_cli(
            capsys, "featuremap", planted_image, "--theta-deg", "0", "--k", "0.2",
            "--rho", "1e-3", "--epsilon", "0.5", "--seeds", "0",
            "--t-end", "50", "--out-dir", str(out_dir),
        )
        assert code == 2
        assert (out_dir / "featuremap_errors.csv").exists()


class TestHw:
    def test_reference_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "hw", "--i-drv", "0.26e-3", "--vcc", "0.8",
            "--freq", "6e9", "--c-coup", "1e-15",
        )
        assert code == 0
        assert "locking_range_fraction = 0.115997" in out
        assert "0.000208 W" in out
        assert "208 uW" in out
        assert "3.2448e-11 J" in out

    def test_filter_count_scales_cost(self, capsys):
        code, out, _ = run_cli(
            capsys, "hw", "--i-drv", "0.26e-3", "--vcc", "0.8",
            "--freq", "6e9", "--c-coup", "1e-15", "--n-filters", "18",
        )
        assert code == 0
        assert "1.08e-07 s" in out

    def test_invalid_params(self, capsys):
        code, _, err = run_cli(
            capsys, "hw", "--i-drv", "0", "--vcc", "0.8",
            "--freq", "6e9", "--c-coup", "1e-15",
        )
        assert code == 1
        assert "error:" in err

    # zero has no prefix, and a value of 1000 units or more keeps the bare unit
    @pytest.mark.parametrize("value, unit, text", [(0.0, "W", "0 W"), (2.6e7, "J", "2.6e+07 J")])
    def test_eng_outside_the_prefixes(self, value, unit, text):
        assert oscconv.cli._eng(value, unit) == text


def subcommands() -> dict:
    """The parser of each subcommand, by name."""
    actions = build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices


# (subcommand, flag, setting) of every float flag the settings table declares,
# on every subcommand that has it
FLOAT_FLAGS = [
    (name, flag, key)
    for key, (_, flag, options) in oscconv.cli._SETTINGS.items()
    if options and options.get("type") is float
    for name, parser in subcommands().items() if flag in parser._option_string_actions
]


class TestParser:
    @pytest.mark.parametrize("command, flag, key", FLOAT_FLAGS)
    def test_an_infinite_float_flag_is_one_line(self, capsys, tmp_path, white_image, command,
                                                flag, key):
        positionals = [white_image for a in subcommands()[command]._actions if not a.option_strings]
        code, _, err = run_cli(capsys, command, *positionals, flag, "inf",
                               "--out-dir", str(tmp_path / "o"))
        assert_one_line_error(code, err)
        assert f"{key} must be" in err

    def test_sweep_settings_are_epsilon_and_its_array_keys(self):
        # cmd_sweep_locking passes on exactly the array settings its flags set
        dests = [a.dest for a in subcommands()["sweep-locking"]._actions
                 if a.dest in oscconv.cli._SETTINGS]
        assert dests == ["epsilon", *oscconv.cli._SWEEP_KEYS]

    def test_the_cli_states_and_runs_the_library_defaults(self):
        # the sweep span --help states
        span = inspect.signature(oscconv.inference._sweep_config).parameters["t_end"].default
        help_text = " ".join(subcommands()["sweep-locking"].format_help().split())
        assert f"span per run (default {span:g})" in help_text

    def test_featuremap_offers_no_lock_flag(self, capsys, white_image):
        # featuremap reads no lock: --reference-oscillator is match's own
        flag = "--reference-oscillator"
        assert flag not in subcommands()["featuremap"]._option_string_actions
        assert flag in subcommands()["match"]._option_string_actions
        code, _, err = run_cli(capsys, "featuremap", white_image, flag)
        assert_one_line_error(code, err)

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag(self, capsys, white_image):
        code, _, err = run_cli(capsys, "match", white_image, "--warp", "9")
        assert code == 1

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out, _ = capsys.readouterr()
        assert "match" in out and "sweep-locking" in out

    def test_negative_epsilon_rejected(self, capsys, white_image):
        code, _, err = run_cli(capsys, "match", white_image, "--epsilon", "-1")
        assert code == 1
        assert "epsilon" in err
