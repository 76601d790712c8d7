"""Command-line front end: sweep the protocols and emit CSV curves.

Usage example:

    decoyqkd --preset gys --protocol all --out results/

writes one ``<protocol>.csv`` per protocol (header ``distance_km,mu,rate``)
and prints the maximal secure distance of each protocol.

Each option is declared once, in ``OPTIONS``, and reaches the sweeps by one
path. Its text is the flag, else the value in a flat key=value config file
(UTF-8, ``#`` comments, the option names as keys), else the default; that
text is parsed once by the option's own function, wherever it came from.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Union

from .bounds import IntensityConstraintError
from .channel import ChannelParams, GYS
from .rates import DECOY_RATES, PROTOCOLS
from .sweeps import (
    DEFAULT_NU3,
    NeverSecureError,
    OPTIMAL_MU,
    SCAN_LIMIT_KM,
    ScanLimitError,
    SweepSpec,
    max_secure_distance,
    sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONSTRAINT = 3

_PRESETS = {"gys": GYS}

#: Default signal intensity of the decoy protocols.
_DECOY_MU = 0.48


def _parse_preset(text: str) -> ChannelParams:
    if text not in _PRESETS:
        raise ValueError(f"unknown preset {text!r}; expected one of {sorted(_PRESETS)}")
    return _PRESETS[text]


def _parse_protocols(text: str) -> tuple[str, ...]:
    if text == "all":
        return PROTOCOLS
    names = tuple(name.strip() for name in text.split(","))
    for name in names:
        if name not in PROTOCOLS:
            raise ValueError(f"unknown protocol {name!r}; expected one of {PROTOCOLS} or 'all'")
        if names.count(name) > 1:
            raise ValueError(f"{name!r} is named more than once")
    return names


def _parse_mu(text: str) -> Union[float, str]:
    return OPTIMAL_MU if text == OPTIMAL_MU else float(text)


def _parse_distance(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got {text!r}")
    start, stop, step = map(float, parts)
    return start, stop, step


#: Every option, once: name -> (parse, default text, help). The flag is the
#: name with dashes and the config-file key is the name. A channel option
#: without a text keeps its preset's value; mu without one takes _DECOY_MU
#: for a decoy protocol and OPTIMAL_MU otherwise.
OPTIONS = {
    "preset": (_parse_preset, "gys", "named channel parameter set (gys)"),
    "protocol": (_parse_protocols, "all", "protocol name, comma list, or 'all'"),
    "mu": (_parse_mu, None, "signal intensity, or 'optimal' (sarg04-no-decoy)"),
    "nu3": (float, str(DEFAULT_NU3), "weakest decoy intensity"),
    "alpha": (float, None, "fiber attenuation in dB/km"),
    "eta_bob": (float, None, "receiver detection efficiency"),
    "y0": (float, None, "background yield per pulse"),
    "edet": (float, None, "misalignment error probability"),
    "fec": (float, None, "error-correction inefficiency factor"),
    "distance": (_parse_distance, "0:250:1", "sweep range start:stop:step in km"),
    "out": (Path, ".", "output directory for CSV files"),
}

#: The ChannelParams field each channel option overrides.
_CHANNEL_FIELDS = dict(
    alpha="alpha_db_per_km", eta_bob="eta_bob", y0="y0", edet="e_det", fec="f_ec"
)


def load_config_file(path: Path) -> dict[str, str]:
    """Parse a flat key=value config file; keys other than option names are rejected."""
    values: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in OPTIONS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoyqkd",
        description="Secure key rate curves for decoy-state QKD protocols.",
    )
    parser.add_argument("--config", type=Path, help="key=value config file")
    for name, (_, _, help_text) in OPTIONS.items():
        parser.add_argument("--" + name.replace("_", "-"), help=help_text)
    return parser


def resolve_config(argv: list[str] | None = None) -> tuple[list[SweepSpec], Path]:
    """One SweepSpec per requested protocol, and the output directory.

    ValueError names the option whose text does not parse; SweepSpec and
    ChannelParams reject values that parse but do not make a sweep.
    """
    flags = vars(build_parser().parse_args(argv))
    for name, text in flags.items():
        if text == []:  # argparse's value for a '--' text, as in --mu=--
            raise ValueError(f"{name}: expected a value, got '--'")
    config = flags.pop("config")
    texts = {name: default for name, (_, default, _) in OPTIONS.items()}
    if config is not None:
        texts.update(load_config_file(config))
    texts.update((name, text) for name, text in flags.items() if text is not None)
    values = {}
    for name, text in texts.items():
        if text is not None:
            try:
                values[name] = OPTIONS[name][0](text)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from exc
    overrides = {field: values[name] for name, field in _CHANNEL_FIELDS.items() if name in values}
    channel = replace(values["preset"], **overrides)
    specs = [
        SweepSpec(
            protocol,
            *values["distance"],
            values.get("mu", _DECOY_MU if protocol in DECOY_RATES else OPTIMAL_MU),
            channel,
            nu3=values["nu3"],
        )
        for protocol in values["protocol"]
    ]
    return specs, values["out"]


def write_csv(path: Path, points) -> None:
    """Rows in 12-significant-digit scientific notation, LF endings."""
    lines = ["distance_km,mu,rate"]
    lines += [f"{p.distance_km:.11e},{p.mu:.11e},{p.rate:.11e}" for p in points]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def run(specs: list[SweepSpec], out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        protocol, mu = spec.protocol, spec.mu
        csv_path = out / f"{protocol}.csv"
        write_csv(csv_path, sweep(spec))
        mu_label = mu if isinstance(mu, str) else f"{mu:g}"
        try:
            cutoff = max_secure_distance(protocol, mu, spec.channel, nu3=spec.nu3)
            outcome = f"max secure distance {cutoff:.1f} km"
        except NeverSecureError:
            outcome = "never secure"
        except ScanLimitError:
            outcome = f"secure beyond the {SCAN_LIMIT_KM:g} km scan limit"
        print(f"{protocol} (mu={mu_label}): {outcome} -> {csv_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Exit 2 for a bad option, an output path that cannot be written or a
    link the model cannot evaluate, 3 for a violated intensity constraint;
    the library raises only ValueErrors, and the output path OSErrors."""
    try:
        return run(*resolve_config(argv))
    except IntensityConstraintError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
