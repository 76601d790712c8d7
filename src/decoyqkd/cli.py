"""Command-line front end: sweep the protocols and emit CSV curves.

Usage example:

    decoyqkd --preset gys --protocol all --out results/

writes one ``<protocol>.csv`` per protocol (header ``distance_km,mu,rate``)
and prints the maximal secure distance of each protocol.

A flat key=value config file (UTF-8, ``#`` comments) can supply any
option; command-line flags override file values.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .bounds import IntensityConstraintError
from .channel import ChannelParams, GYS
from .rates import PROTOCOLS
from .sweeps import (
    DEFAULT_NU3,
    NeverSecureError,
    OPTIMAL_MU,
    SweepSpec,
    max_secure_distance,
    sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONSTRAINT = 3

_PRESETS = {"gys": GYS}

#: Keys accepted in a config file; anything else is rejected.
CONFIG_KEYS = frozenset(
    {"preset", "protocol", "mu", "nu3", "alpha", "eta_bob", "y0", "edet", "fec", "distance", "out"}
)

_DEFAULT_MU = {
    "bb84-decoy": 0.48,
    "nonorthogonal-decoy": 0.48,
    "sarg04-no-decoy": OPTIMAL_MU,
}


class ConfigError(ValueError):
    """Unusable configuration file or option combination."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters."""

    channel: ChannelParams
    protocols: tuple[str, ...]
    mu: Union[float, str, None]
    nu3: float
    distance: tuple[float, float, float]
    out: Path

    def specs(self) -> list[SweepSpec]:
        """One sweep per protocol; ValueError if the options do not make one."""
        specs = []
        for protocol in self.protocols:
            mu = _DEFAULT_MU[protocol] if self.mu is None else self.mu
            specs.append(SweepSpec(protocol, *self.distance, mu, self.channel, nu3=self.nu3))
        return specs


def load_config_file(path: Path) -> dict[str, str]:
    """Parse a flat key=value config file; unknown keys are rejected."""
    values: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _parse_distance(text: str) -> tuple[float, float, float]:
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"distance must be numeric start:stop:step, got {text!r}") from exc
    return start, stop, step


def _parse_protocols(text: str) -> tuple[str, ...]:
    if text == "all":
        return PROTOCOLS
    names = tuple(name.strip() for name in text.split(","))
    for name in names:
        if name not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {name!r}; expected one of {PROTOCOLS} or 'all'")
    return names


def _parse_mu(text: str) -> Union[float, str]:
    if text == OPTIMAL_MU:
        return OPTIMAL_MU
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"mu must be a number or {OPTIMAL_MU!r}, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoyqkd",
        description="Secure key rate curves for decoy-state QKD protocols.",
    )
    parser.add_argument("--config", type=Path, help="key=value config file")
    parser.add_argument("--preset", choices=sorted(_PRESETS), help="named channel parameter set")
    parser.add_argument("--protocol", help="protocol name, comma list, or 'all'")
    parser.add_argument("--mu", help="signal intensity, or 'optimal' (sarg04-no-decoy)")
    parser.add_argument("--nu3", type=float, help="weakest decoy intensity")
    parser.add_argument("--alpha", type=float, help="fiber attenuation in dB/km")
    parser.add_argument("--eta-bob", type=float, help="receiver detection efficiency")
    parser.add_argument("--y0", type=float, help="background yield per pulse")
    parser.add_argument("--edet", type=float, help="misalignment error probability")
    parser.add_argument("--fec", type=float, help="error-correction inefficiency factor")
    parser.add_argument("--distance", help="sweep range start:stop:step in km")
    parser.add_argument("--out", type=Path, help="output directory for CSV files")
    return parser


def resolve_config(argv: list[str] | None = None) -> RunConfig:
    """Merge defaults, config file, and flags into a RunConfig."""
    args = build_parser().parse_args(argv)
    file_values = load_config_file(args.config) if args.config else {}

    def pick(flag_value, key: str, parse, default):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return parse(file_values[key])
        return default

    preset_name = pick(args.preset, "preset", str, "gys")
    if preset_name not in _PRESETS:
        raise ConfigError(f"unknown preset {preset_name!r}")
    base = _PRESETS[preset_name]

    try:
        channel = ChannelParams(
            alpha_db_per_km=pick(args.alpha, "alpha", float, base.alpha_db_per_km),
            distance_km=0.0,
            eta_bob=pick(args.eta_bob, "eta_bob", float, base.eta_bob),
            y0=pick(args.y0, "y0", float, base.y0),
            e_det=pick(args.edet, "edet", float, base.e_det),
            f_ec=pick(args.fec, "fec", float, base.f_ec),
        )
        nu3 = pick(args.nu3, "nu3", float, DEFAULT_NU3)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    protocols = _parse_protocols(pick(args.protocol, "protocol", str, "all"))
    mu = _parse_mu(args.mu) if args.mu is not None else (
        _parse_mu(file_values["mu"]) if "mu" in file_values else None
    )
    distance = _parse_distance(pick(args.distance, "distance", str, "0:250:1"))
    out = Path(pick(args.out, "out", Path, Path(".")))
    config = RunConfig(
        channel=channel, protocols=protocols, mu=mu, nu3=nu3, distance=distance, out=out
    )
    try:
        config.specs()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def write_csv(path: Path, points) -> None:
    """Rows in 12-significant-digit scientific notation, LF endings."""
    lines = ["distance_km,mu,rate"]
    lines += [f"{p.distance_km:.11e},{p.mu:.11e},{p.rate:.11e}" for p in points]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def run(config: RunConfig) -> int:
    config.out.mkdir(parents=True, exist_ok=True)
    for spec in config.specs():
        protocol, mu = spec.protocol, spec.mu
        csv_path = config.out / f"{protocol}.csv"
        write_csv(csv_path, sweep(spec))
        mu_label = mu if isinstance(mu, str) else f"{mu:g}"
        try:
            cutoff = max_secure_distance(protocol, mu, config.channel, nu3=config.nu3)
            print(f"{protocol} (mu={mu_label}): max secure distance {cutoff:.1f} km -> {csv_path}")
        except NeverSecureError:
            print(f"{protocol} (mu={mu_label}): never secure -> {csv_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        config = resolve_config(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run(config)
    except IntensityConstraintError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
