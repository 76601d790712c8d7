import math
from pathlib import Path

import pytest

from decoyqkd import GYS, PROTOCOLS, ChannelParams
from decoyqkd.cli import (
    EXIT_CONFIG,
    EXIT_CONSTRAINT,
    EXIT_OK,
    load_config_file,
    main,
    resolve_config,
)


def run_cli(args):
    return main(args)


class TestResolveConfig:
    def test_gys_preset_values(self):
        specs, _ = resolve_config(["--preset", "gys"])
        channel = specs[0].channel
        assert channel.alpha_db_per_km == 0.21
        assert channel.e_det == 0.033
        assert channel.y0 == 1.7e-6
        assert channel.eta_bob == 0.045
        assert channel.f_ec == 1.22
        assert channel == GYS

    def test_flag_overrides_preset(self):
        specs, _ = resolve_config(["--preset", "gys", "--alpha", "0.25"])
        assert specs[0].channel.alpha_db_per_km == 0.25
        assert specs[0].channel.e_det == 0.033

    def test_protocol_selection(self):
        specs, _ = resolve_config(["--protocol", "bb84-decoy,sarg04-no-decoy"])
        assert tuple(spec.protocol for spec in specs) == ("bb84-decoy", "sarg04-no-decoy")
        assert len(resolve_config(["--protocol", "all"])[0]) == 3

    def test_config_file_merged_and_overridden(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nmu = 0.30\nprotocol = bb84-decoy\nnu3 = 0.02\n")
        specs, _ = resolve_config(["--config", str(cfg), "--mu", "0.48"])
        assert specs[0].mu == 0.48  # flag wins
        assert specs[0].nu3 == 0.02
        assert tuple(spec.protocol for spec in specs) == ("bb84-decoy",)

    def test_distance_parsing(self):
        spec = resolve_config(["--distance", "0:0:1"])[0][0]
        assert (spec.start_km, spec.stop_km, spec.step_km) == (0.0, 0.0, 1.0)

    def test_config_file_and_flags_resolve_alike(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "preset = gys\nprotocol = bb84-decoy,nonorthogonal-decoy\nmu = 0.3\nnu3 = 0.02\n"
            "alpha = 0.25\neta_bob = 0.05\ny0 = 2e-6\nedet = 0.02\nfec = 1.1\n"
            f"distance = 0:40:5\nout = {out}\n"
        )
        flags = [
            "--preset", "gys", "--protocol", "bb84-decoy,nonorthogonal-decoy", "--mu", "0.3",
            "--nu3", "0.02", "--alpha", "0.25", "--eta-bob", "0.05", "--y0", "2e-6",
            "--edet", "0.02", "--fec", "1.1", "--distance", "0:40:5", "--out", str(out),
        ]
        specs, resolved_out = resolve_config(["--config", str(cfg)])
        assert (specs, resolved_out) == resolve_config(flags)
        assert resolved_out == out
        assert specs[0].channel == ChannelParams(0.25, 0.0, 0.05, 2e-6, 0.02, 1.1)
        assert [(s.protocol, s.start_km, s.stop_km, s.step_km, s.mu, s.nu3) for s in specs] == [
            ("bb84-decoy", 0.0, 40.0, 5.0, 0.3, 0.02),
            ("nonorthogonal-decoy", 0.0, 40.0, 5.0, 0.3, 0.02),
        ]


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mu = 0.3\nwavelength = 1550\n")
        assert run_cli(["--config", str(cfg)]) == EXIT_CONFIG

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert run_cli(["--config", str(cfg)]) == EXIT_CONFIG

    def test_non_numeric_nu3_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nu3 = abc\n")
        assert run_cli(["--config", str(cfg)]) == EXIT_CONFIG

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        # a missing file and a directory: neither can be read as text
        for cfg in (tmp_path / "missing.cfg", tmp_path):
            assert run_cli(["--config", str(cfg)]) == EXIT_CONFIG
            assert capsys.readouterr().err.startswith("error: cannot read config file ")

    def test_byte_order_mark_accepted(self, tmp_path):
        # some editors start a UTF-8 file with a byte order mark
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfmu = 0.3\nnu3 = 0.02\n")
        assert load_config_file(cfg) == {"mu": "0.3", "nu3": "0.02"}
        specs, _ = resolve_config(["--config", str(cfg)])
        assert specs[0].mu == 0.3

    def test_undecodable_config_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# caf\xe9\nmu = 0.3\n".encode("latin-1"))
        assert run_cli(["--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {cfg}: ")

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("\n# full comment\nmu = 0.3  # trailing comment\n\n")
        assert load_config_file(cfg) == {"mu": "0.3"}


class TestRun:
    def test_all_protocols_write_csvs_and_report(self, tmp_path, capsys):
        code = run_cli(
            ["--preset", "gys", "--protocol", "all", "--distance", "0:20:10", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for protocol in ("bb84-decoy", "sarg04-no-decoy", "nonorthogonal-decoy"):
            csv = tmp_path / f"{protocol}.csv"
            assert csv.exists()
            lines = csv.read_text().splitlines()
            assert lines[0] == "distance_km,mu,rate"
            assert len(lines) == 4  # header + 0, 10, 20 km
            assert f"{protocol}" in out
            assert "max secure distance" in out
        # misalignment close to the random limit: no key at any distance
        args = ["--edet", "0.45", "--protocol", "nonorthogonal-decoy", "--out", str(tmp_path)]
        assert run_cli(args + ["--distance", "0:20:10"]) == EXIT_OK
        csv = tmp_path / "nonorthogonal-decoy.csv"
        assert capsys.readouterr().out == f"nonorthogonal-decoy (mu=0.48): never secure -> {csv}\n"

    def test_degenerate_range_single_row(self, tmp_path):
        code = run_cli(
            ["--protocol", "bb84-decoy", "--distance", "0:0:1", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "bb84-decoy.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["--protocol", "nonorthogonal-decoy", "--mu", "0.30", "--distance", "0:30:10"]
        first_dir, second_dir = tmp_path / "a", tmp_path / "b"
        run_cli(args + ["--out", str(first_dir)])
        run_cli(args + ["--out", str(second_dir)])
        name = "nonorthogonal-decoy.csv"
        assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()

    def test_mu_flag_reflected_in_csv(self, tmp_path):
        run_cli(
            ["--protocol", "bb84-decoy", "--mu", "0.30", "--distance", "0:0:1", "--out", str(tmp_path)]
        )
        row = (tmp_path / "bb84-decoy.csv").read_text().splitlines()[1]
        assert row.split(",")[1] == "3.00000000000e-01"

    def test_lf_line_endings(self, tmp_path):
        run_cli(["--protocol", "bb84-decoy", "--distance", "0:0:1", "--out", str(tmp_path)])
        raw = (tmp_path / "bb84-decoy.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_links_past_300_db_of_loss_run(self, tmp_path):
        # the optimal SARG04 intensity ~sqrt(2 eta) falls below 1e-15 there, and
        # at 4 dB/km the transmittance underflows to 0 inside the grids
        for args in (
            ["--distance", "0:2000:10"],
            ["--eta-bob", "1e-40"],
            ["--alpha", "4"],
            ["--alpha", "1e308", "--distance", "0:300:10"],
            ["--alpha", "4", "--distance", "0:2000:10"],
        ):
            assert run_cli(args + ["--out", str(tmp_path)]) == EXIT_OK, args
        # at 2000 km no signal arrives, so no intensity is sent and no key made
        last = (tmp_path / "sarg04-no-decoy.csv").read_text().splitlines()[-1]
        assert last.split(",")[1:] == ["0.00000000000e+00", "0.00000000000e+00"]

    @pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["file", "under-file"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, out):
        (tmp_path / "afile").write_text("not a directory\n")
        args = ["--protocol", "bb84-decoy", "--distance", "0:0:1", "--out", str(tmp_path / out)]
        assert run_cli(args) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_constraint_violation_exit_code(self, tmp_path, capsys):
        # nu3 above the constructed nu2: rejected with the inequality named
        code = run_cli(
            ["--protocol", "bb84-decoy", "--mu", "0.30", "--nu3", "0.2", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONSTRAINT
        assert "nu3 < nu2" in capsys.readouterr().err
        # a nu3 whose square underflows: rejected with nu3 named
        for protocol, nu3 in (("nonorthogonal-decoy", "1e-160"), ("bb84-decoy", "1e-320")):
            args = ["--protocol", protocol, "--nu3", nu3, "--out", str(tmp_path)]
            assert run_cli(args) == EXIT_CONSTRAINT
            assert f"nu3={float(nu3)}" in capsys.readouterr().err

    def test_bad_flag_value_exit_code(self, tmp_path, capsys):
        assert run_cli(["--mu", "abc"]) == EXIT_CONFIG
        assert run_cli(["--distance", "0-100-1"]) == EXIT_CONFIG
        assert run_cli(["--protocol", "b92"]) == EXIT_CONFIG
        capsys.readouterr()
        assert run_cli(["--preset", "ideal"]) == EXIT_CONFIG
        assert "error: preset: unknown preset 'ideal'" in capsys.readouterr().err
        # non-finite values, a sweep too large to allocate, too large an intensity,
        # and a link without dark counts that the model cannot evaluate: a zero
        # gain (so no QBER) where the transmittance underflows
        for args in (
            ["--fec", "nan"],
            ["--alpha", "nan"],
            ["--alpha", "inf"],
            ["--distance", "0:10:nan"],
            ["--distance", "0:inf:1"],
            ["--distance", "0:1e9:1e-3"],
            ["--y0", "0", "--alpha", "4", "--protocol", "bb84-decoy"],
            # intensities past MAX_MU, where e^mu and mu^2 overflow
            ["--protocol", "bb84-decoy", "--mu", "800"],
            ["--protocol", "nonorthogonal-decoy", "--mu", "1e155"],
            ["--protocol", "sarg04-no-decoy", "--mu", "1e300"],
            # a non-finite nu3, also where the protocol takes no decoys
            ["--nu3", "nan"],
            ["--nu3", "inf"],
            ["--protocol", "sarg04-no-decoy", "--nu3", "nan"],
            # a '--' text, which argparse turns into an empty list
            ["--mu=--"],
            ["--config=--"],
            # a protocol named twice, which would be computed and written twice
            ["--protocol", "bb84-decoy,bb84-decoy"],
        ):
            capsys.readouterr()
            assert run_cli(args + ["--out", str(tmp_path)]) == EXIT_CONFIG, args
            assert "error:" in capsys.readouterr().err, args

    def test_secure_beyond_scan_limit_reported_per_protocol(self, tmp_path, capsys):
        # without dark counts both decoy rates stay positive to the 1000 km scan
        # limit; that is reported and the run goes on to the next protocol
        args = ["--y0", "0", "--alpha", "2", "--protocol", "all", "--out", str(tmp_path)]
        assert run_cli(args) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for protocol, line in zip(PROTOCOLS, lines):
            csv = tmp_path / f"{protocol}.csv"
            assert csv.exists()
            assert line.startswith(f"{protocol} (mu=") and line.endswith(f" -> {csv}")
            if protocol != "sarg04-no-decoy":
                assert "): secure beyond the 1000 km scan limit -> " in line
        args = ["--y0", "0", "--protocol", "bb84-decoy", "--distance", "0:10:5"]
        assert run_cli(args + ["--out", str(tmp_path)]) == EXIT_OK
        assert "secure beyond the 1000 km scan limit" in capsys.readouterr().out

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["--frequency", "1"])
        assert excinfo.value.code == 2


RECORDED = Path(__file__).resolve().parents[1] / "bench" / "reference" / "cli-default"


def test_default_run_reproduces_recorded_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli([]) == EXIT_OK
    assert capsys.readouterr().out == (RECORDED / "stdout.txt").read_text()
    for protocol in PROTOCOLS:
        got = (tmp_path / f"{protocol}.csv").read_text().split("\n")
        want = (RECORDED / f"{protocol}.csv").read_text().split("\n")
        assert got[0] == want[0] and len(got) == len(want) and got[-1] == "", protocol
        for got_row, want_row in zip(got[1:-1], want[1:-1]):
            for g, w in zip(map(float, got_row.split(",")), map(float, want_row.split(","))):
                # one unit of the 12th printed digit, with the benchmark's
                # 1e-15 floor for rates that cancel to near zero
                unit = 10.0 ** (math.floor(math.log10(abs(w))) - 11) if w else 0.0
                assert abs(g - w) <= max(unit, 1e-15), (protocol, got_row, want_row)
