import math
from pathlib import Path

import pytest

from decoyqkd import GYS, PROTOCOLS
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
        config = resolve_config(["--preset", "gys"])
        assert config.channel.alpha_db_per_km == 0.21
        assert config.channel.e_det == 0.033
        assert config.channel.y0 == 1.7e-6
        assert config.channel.eta_bob == 0.045
        assert config.channel.f_ec == 1.22
        assert config.channel == GYS

    def test_flag_overrides_preset(self):
        config = resolve_config(["--preset", "gys", "--alpha", "0.25"])
        assert config.channel.alpha_db_per_km == 0.25
        assert config.channel.e_det == 0.033

    def test_protocol_selection(self):
        config = resolve_config(["--protocol", "bb84-decoy,sarg04-no-decoy"])
        assert config.protocols == ("bb84-decoy", "sarg04-no-decoy")
        assert len(resolve_config(["--protocol", "all"]).protocols) == 3

    def test_config_file_merged_and_overridden(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nmu = 0.30\nprotocol = bb84-decoy\nnu3 = 0.02\n")
        config = resolve_config(["--config", str(cfg), "--mu", "0.48"])
        assert config.mu == 0.48  # flag wins
        assert config.nu3 == 0.02
        assert config.protocols == ("bb84-decoy",)

    def test_distance_parsing(self):
        assert resolve_config(["--distance", "0:0:1"]).distance == (0.0, 0.0, 1.0)


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mu = 0.3\nwavelength = 1550\n")
        assert run_cli(["--config", str(cfg)]) == EXIT_CONFIG

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert run_cli(["--config", str(cfg)]) == EXIT_CONFIG

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

    def test_constraint_violation_exit_code(self, tmp_path, capsys):
        # nu3 above the constructed nu2: rejected with the inequality named
        code = run_cli(
            ["--protocol", "bb84-decoy", "--mu", "0.30", "--nu3", "0.2", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONSTRAINT
        assert "nu3 < nu2" in capsys.readouterr().err

    def test_bad_flag_value_exit_code(self):
        assert run_cli(["--mu", "abc"]) == EXIT_CONFIG
        assert run_cli(["--distance", "0-100-1"]) == EXIT_CONFIG
        assert run_cli(["--protocol", "b92"]) == EXIT_CONFIG
        # non-finite values, and a sweep too large to allocate
        for args in (
            ["--fec", "nan"],
            ["--alpha", "nan"],
            ["--alpha", "inf"],
            ["--distance", "0:10:nan"],
            ["--distance", "0:inf:1"],
            ["--distance", "0:1e9:1e-3"],
        ):
            assert run_cli(args) == EXIT_CONFIG, args

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
