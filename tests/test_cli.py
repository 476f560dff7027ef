import csv
import inspect
import json
import math
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
from oscconv.cli import load_image, main
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
            omega = fsk_encode(
                fragment, gabor_filter(5, entry["theta_deg"], entry["k"]),
                cfg.omega0, cfg.delta_omega,
            )
            if reference:
                omega = np.append(omega, cfg.omega0)
            trace = integrate(omega, cfg, random_initial_state(cfg.n, 3))
            rows = read_rows(out_dir / f"trace_filter_{index:02d}.csv")[1:]
            dumped = np.array(rows, dtype=np.float64)
            expected = np.column_stack([
                trace.times, trace.averager.real, trace.averager.imag,
                trace.envelope, trace.peak_detector_output,
            ])
            assert np.array_equal(dumped, expected)

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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        runs = []
        for name, config in (("plain", ()), ("seeded", ("--config", str(cfg)))):
            out_dir = tmp_path / name
            code, out, err = run_cli(
                capsys, "match", white_image, *config, "--bank", one_filter_bank,
                "--dump-traces", "--seeds", "0,1", "--t-end", "50", "--out-dir", str(out_dir),
            )
            files = {path.name: path.read_bytes() for path in out_dir.iterdir()}
            runs.append((code, out, err, files))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and len(runs[0][3]) == 2

    def test_unknown_config_field(self, capsys, tmp_path, white_image):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(capsys, "match", white_image, "--config", str(cfg))
        assert code == 1
        assert "unknown field 'bogus'" in err

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

    def test_invalid_json(self, capsys, tmp_path, white_image):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{")
        code, _, err = run_cli(capsys, "match", white_image, "--config", str(cfg))
        assert code == 1
        assert "invalid JSON" in err

    def test_dom_policy_from_config(self, capsys, tmp_path, white_image):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dom_policy": {"method": "sample_peak_detector", "sample_time": 150.0},
            "seeds": [0],
            "t_end": 200.0,
        }))
        bank_file = tmp_path / "bank.json"
        bank_file.write_text(json.dumps([{"theta_deg": 0, "k": 0.2}]))
        code, out, _ = run_cli(
            capsys, "match", white_image, "--config", str(cfg),
            "--bank", str(bank_file), "--out-dir", str(tmp_path / "o3"),
        )
        assert code == 0

    def test_bad_policy_field_in_config(self, capsys, tmp_path, white_image):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dom_policy": {"window": 3}}))
        code, _, err = run_cli(capsys, "match", white_image, "--config", str(cfg))
        assert code == 1
        assert "dom_policy" in err

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
        assert oscconv.cli._CONFIG_KEYS["seeds"](seeds, "seeds") is seeds

    @pytest.mark.parametrize("seeds, message", [
        ("0:16000000", "a block of 16000000 runs would record"),
        ("0:100000000000000000000", "expects 'a,b,c' or 'start:stop'"),  # too long for len()
    ])
    def test_an_oversized_seed_range_is_one_line(self, capsys, white_image, seeds, message):
        code, _, err = run_cli(capsys, "match", white_image, "--seeds", seeds)
        assert_one_line_error(code, err)
        assert message in err


class TestMalformedValues:
    """Each malformed value exits 1 with one line on stderr, never a traceback."""

    @pytest.mark.parametrize("config, argv", [
        pytest.param({"t_end": "abc"}, ["--seeds", "0"], id="t_end-string"),
        pytest.param({"stride": "2"}, ["--t-end", "2", "--seeds", "0"], id="stride-string"),
        pytest.param({"seeds": [-1]}, ["--t-end", "2"], id="seeds-negative"),
        pytest.param({}, ["--t-end", "2", "--seeds=-1"], id="seeds-flag-negative"),
        pytest.param({"seeds": [1.5]}, ["--t-end", "2"], id="seeds-fraction"),
        pytest.param({"side": True}, ["--t-end", "2", "--seeds", "0"], id="side-boolean"),
        pytest.param(
            {"bank": [{"theta_deg": 0, "k": "x"}]}, ["--t-end", "2", "--seeds", "0"],
            id="bank-inline-k-string",
        ),
        pytest.param(
            {"dom_policy": {"method": "sample_peak_detector", "sample_time": "3"}},
            ["--t-end", "2", "--seeds", "0"], id="sample_time-string",
        ),
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
        pytest.param(["match", "IMAGE", "--seeds", "0:10000000000"], id="match-huge-seed-range"),
        # a stride longer than the run records only the initial state
        pytest.param(["match", "IMAGE", "--stride", "9" * 400, "--seeds", "0"],
                     id="match-stride-400-digits"),
        pytest.param(["featuremap", "IMAGE", "--stride", "100000", "--t-end", "20", "--seeds", "0"],
                     id="featuremap-stride-beyond-run"),
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
    ])
    def test_rejected_input(self, capsys, tmp_path, white_image, argv):
        huge_k_bank = tmp_path / "huge_k_bank.json"
        huge_k_bank.write_text(json.dumps([{"theta_deg": 0, "k": 1e308}]))
        paths = {"IMAGE": white_image, "HUGE_K_BANK": str(huge_k_bank)}
        code, _, err = run_cli(
            capsys, *(paths.get(a, a) for a in argv), "--out-dir", str(tmp_path / "o")
        )
        assert_one_line_error(code, err)

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

    def test_zero_delta_omega_names_spread_tol(self, capsys, tmp_path, white_image,
                                               one_filter_bank):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta_omega": 0}))
        argv = ["match", white_image, "--config", str(cfg), "--bank", one_filter_bank,
                "--seeds", "0", "--t-end", "20", "--out-dir", str(tmp_path / "o")]
        code, _, err = run_cli(capsys, *argv)
        assert_one_line_error(code, err)
        assert "delta_omega is 0: set spread_tol" in err
        code, _, err = run_cli(capsys, *argv, "--spread-tol", "0.01")
        assert code == 0 and err == ""

    # the lock readouts need 3 samples; a block of 2 has no final frequencies either
    @pytest.mark.parametrize("argv", [
        pytest.param(["match", "FRAGMENT", "--seeds", "0,1"], id="match"),
        pytest.param(["sweep-locking"], id="sweep"),
    ])
    def test_two_samples_are_too_few_to_read_a_lock(self, capsys, tmp_path, argv):
        fragment = str(Path(__file__).parent / "golden" / "inputs" / "fragment.pgm")
        code, _, err = run_cli(capsys, *(fragment if a == "FRAGMENT" else a for a in argv),
                               "--t-end", "0.1", "--dt", "0.1", "--out-dir", str(tmp_path / "o"))
        assert (code, err) == (1, "error: instantaneous frequency needs >= 3 samples, trace has 2\n")

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
@pytest.mark.parametrize("value, text", [
    (None, ""), (0, "0"), ("a,b", '"a,b"'), (0.1, "0.1"), (-0.0, "-0.0"), (1e-05, "1e-05"),
    (1e16, "1e+16"), (5e-324, "5e-324"), (math.nan, "nan"), (math.inf, "inf"),
])
def test_csv_cell_text(tmp_path, value, text):
    path = tmp_path / "cells.csv"
    oscconv.cli._write_csv(path, ["a", "b"], [[7, value]])
    assert path.read_text() == f"a,b\n7,{text}\n"


# Every config key, and values of the wrong JSON type, non-finite or negative
CONFIG_KEYS = (
    "rho", "omega0", "delta_omega", "epsilon", "include_self_in_sum", "dt", "t_end",
    "stride", "seed", "side", "seeds", "dom_policy", "spread_tol",
    "dom_threshold_fraction", "reference_oscillator", "bank",
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

    def test_no_locked_points(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "sweep-locking", "--epsilon", "0.01",
            "--grid", "0.15:0.2:0.05", "--t-end", "200",
            "--out-dir", str(tmp_path / "s2"),
        )
        assert code == 0
        assert "no locked point" in out

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

        def recorder(*args, **kwargs):
            bound = inspect.signature(oscconv.inference.sweep_locking).bind(*args, **kwargs)
            bound.apply_defaults()
            received.append(tuple(bound.arguments[k] for k in ("epsilon", "t_end", "seed")))
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


class TestParser:
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
