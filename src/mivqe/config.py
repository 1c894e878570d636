"""Run configuration: a flat key=value text format mirrored by the CLI flags.

RunConfig is the one table of run settings: each field gives a key's name,
value type and default, and its "help" metadata is the CLI flag's help text.
The adaptive loop's settings take their defaults from AdaptiveConfig, which
declares each of them once.
Every key reaches RunConfig through parse_config, whether it came from a
config file or a flag, and the range checks run as the RunConfig is built.
Unset keys take the defaults; exactly one Hamiltonian source (fcidump or
pauli_sum) must be set. The same text format is echoed into the run manifest
so a run can be reproduced from its artifacts alone: a comment starts at a
'#' that begins a line or follows whitespace, so a '#' inside a path stays,
and a value that would not read back unchanged (a '#' after whitespace, a
line break, or space at either end) is refused as the RunConfig is built.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

from .adaptive import AdaptiveConfig, AdaptiveError
from .encodings import EncodingError, canonical_mapping


class ConfigError(ValueError):
    pass


@dataclass
class MpsBackend:
    chi: int
    sweeps: int

    def tag(self) -> str:
        return f"mps:chi={self.chi},sweeps={self.sweeps}"


def _setting(default, text: str):
    """A RunConfig field whose CLI flag shows text as its help."""
    return field(default=default, metadata={"help": text})


@dataclass
class RunConfig:
    fcidump: str | None = _setting(None, "FCIDUMP input path")
    pauli_sum: str | None = _setting(None, "Pauli-sum text input path")
    mapping: str = _setting("jordan_wigner", "jordan_wigner | parity | bravyi_kitaev (jw/bk ok)")
    grouping: str = _setting("abab", "abab | aabb")
    reduce_stationary: bool = _setting(True, "drop Z-only qubits: true | false (default true)")
    p_cut: float | None = _setting(None, "screening cutoff in (0,1]")
    reference: str = _setting("exact", "exact | mps:chi=<n>,sweeps=<n> | mi:<csv path>")
    descent_fraction: float = _setting(
        AdaptiveConfig.descent_fraction, "acceptable descent as a share of the largest, in (0,1]"
    )
    spin_penalty: float | None = _setting(None, "S^2 penalty weight in hartree")
    max_steps: int = _setting(AdaptiveConfig.max_steps, "adaptive step limit, >= 0")
    convergence_tol: float = _setting(
        AdaptiveConfig.convergence_tol, "convergence tolerance in hartree, finite and > 0"
    )
    baseline: str = _setting("reduced", "pool for percentile denominators: reduced | unreduced")
    seed: int = _setting(AdaptiveConfig.seed, "random seed, >= 0")
    output: str | None = _setting(None, "artifact directory")

    def __post_init__(self):
        if (self.fcidump is None) == (self.pauli_sum is None):
            raise ConfigError("exactly one of fcidump/pauli_sum must be set")
        try:
            self.mapping = canonical_mapping(self.mapping)
        except EncodingError as exc:
            raise ConfigError(str(exc)) from None
        if self.grouping not in ("abab", "aabb"):
            raise ConfigError(f"unknown grouping {self.grouping!r}")
        if self.p_cut is not None and not (0.0 < self.p_cut <= 1.0):
            raise ConfigError("p_cut must lie in (0, 1]")
        if self.spin_penalty is not None and not math.isfinite(self.spin_penalty):
            raise ConfigError("spin_penalty must be finite")
        if self.baseline not in ("reduced", "unreduced"):
            raise ConfigError(f"unknown baseline {self.baseline!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, str) and not _reads_back(f.name, value):
                raise ConfigError(
                    f"{f.name} {value!r} does not read back from config text "
                    "(a '#' after whitespace, a line break, or space at either end)"
                )
        parse_reference(self.reference)
        try:
            self.adaptive_config()
        except AdaptiveError as exc:
            raise ConfigError(str(exc)) from None

    def adaptive_config(self) -> AdaptiveConfig:
        return AdaptiveConfig(**{f.name: getattr(self, f.name) for f in fields(AdaptiveConfig)})

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                # 12 digits where they read back as the same float, so
                # existing manifests keep their bytes; repr otherwise
                text = f"{value:.12g}"
                value = text if float(text) == value else repr(value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


def parse_reference(text: str):
    """Decode the reference backend field: 'exact', 'mps:...', or 'mi:<path>'."""
    if text == "exact":
        return "exact"
    if text.startswith("mi:"):
        path = text[3:].strip()
        if not path:
            raise ConfigError("mi: reference needs a CSV path")
        return ("mi", path)
    if text.startswith("mps:"):
        opts = {}
        for part in text[4:].split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in ("chi", "sweeps"):
                raise ConfigError(f"unknown mps option {key!r}")
            try:
                opts[key] = int(val)
            except ValueError:
                raise ConfigError(f"mps option {key} needs an integer, got {val!r}") from None
        if len(opts) != 2:
            raise ConfigError("mps reference needs chi=<n>,sweeps=<n>")
        if min(opts.values()) < 1:
            raise ConfigError("mps reference needs chi and sweeps of at least 1")
        return MpsBackend(opts["chi"], opts["sweeps"])
    raise ConfigError(f"unknown reference backend {text!r}")


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


# a comment runs from a '#' that begins the line or follows whitespace
_COMMENT = re.compile(r"(?:^|\s)#")


def _settings(text: str):
    """(key, value) of each 'key = value' line of config text, in order."""
    for raw in text.splitlines():
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"expected 'key = value', got {line!r}")
        yield key.strip(), val.strip()


def _reads_back(key: str, value: str) -> bool:
    """Whether the line to_text writes for key parses back to value."""
    try:
        return list(_settings(f"{key} = {value}")) == [(key, value)]
    except ConfigError:
        return False


def parse_config(text: str, **overrides) -> RunConfig:
    values: dict = {}
    for key, val in _settings(text):
        if key in values:
            raise ConfigError(f"duplicate config key {key!r}")
        values[key] = val
    values.update({k: v for k, v in overrides.items() if v is not None})

    typed: dict = {}
    valid = {f.name: f for f in fields(RunConfig)}
    for key, val in values.items():
        if key not in valid:
            raise ConfigError(f"unknown config key {key!r}")
        typed[key] = _coerce(valid[key], val) if isinstance(val, str) else val
    return RunConfig(**typed)


# Value parsers by the annotation's first type: with postponed annotations
# a field's type is a string such as 'float | None'.
_PARSERS = {"bool": lambda val: _BOOL[val.lower()], "float": float, "int": int, "str": str}


def _coerce(setting, val: str):
    parse = _PARSERS[setting.type.split("|")[0].strip()]
    try:
        return parse(val)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for {setting.name}: {val!r}") from None
