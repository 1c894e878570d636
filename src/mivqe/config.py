"""Run configuration: a flat key=value text format mirrored by the CLI flags.

Unset keys take the documented defaults; exactly one Hamiltonian source
(fcidump or pauli_sum) must be set. The same text format is echoed into the
run manifest so a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .adaptive import AdaptiveConfig, OptimizerConfig
from .encodings import EncodingError, canonical_mapping


class ConfigError(ValueError):
    pass


@dataclass
class MpsBackend:
    chi: int
    sweeps: int

    def tag(self) -> str:
        return f"mps:chi={self.chi},sweeps={self.sweeps}"


@dataclass
class RunConfig:
    fcidump: str | None = None
    pauli_sum: str | None = None
    mapping: str = "jordan_wigner"
    grouping: str = "abab"
    reduce_stationary: bool = True
    p_cut: float | None = None
    reference: str = "exact"  # exact | mps:chi=<n>,sweeps=<n> | mi:<path>
    descent_fraction: float = 0.3
    spin_penalty: float | None = None
    max_steps: int = 30
    convergence_tol: float = 1e-3
    baseline: str = "reduced"  # reduced | unreduced
    seed: int = 7
    hops: int = 10
    temperature: float = 0.5
    step_size: float = 1e-6
    local_tol: float = 1e-8
    output: str | None = None

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
        if self.baseline not in ("reduced", "unreduced"):
            raise ConfigError(f"unknown baseline {self.baseline!r}")
        parse_reference(self.reference)

    def adaptive_config(self) -> AdaptiveConfig:
        return AdaptiveConfig(
            descent_fraction=self.descent_fraction,
            max_steps=self.max_steps,
            convergence_tol=self.convergence_tol,
            seed=self.seed,
            optimizer=OptimizerConfig(
                hops=self.hops,
                temperature=self.temperature,
                step_size=self.step_size,
                local_tolerance=self.local_tol,
            ),
        )

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = f"{value:.12g}"
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
        return MpsBackend(opts["chi"], opts["sweeps"])
    raise ConfigError(f"unknown reference backend {text!r}")


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def parse_config(text: str, **overrides) -> RunConfig:
    values: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"expected 'key = value', got {line!r}")
        values[key.strip()] = val.strip()
    values.update({k: v for k, v in overrides.items() if v is not None})

    typed: dict = {}
    valid = {f.name: f for f in fields(RunConfig)}
    for key, val in values.items():
        if key not in valid:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(val, str):
            typed[key] = _coerce(key, val)
        else:
            typed[key] = val
    return RunConfig(**typed)


def _coerce(key: str, val: str):
    kind = {
        "reduce_stationary": "bool",
        "p_cut": "float",
        "descent_fraction": "float",
        "spin_penalty": "float",
        "convergence_tol": "float",
        "temperature": "float",
        "step_size": "float",
        "local_tol": "float",
        "max_steps": "int",
        "seed": "int",
        "hops": "int",
    }.get(key, "str")
    try:
        if kind == "bool":
            return _BOOL[val.lower()]
        if kind == "float":
            return float(val)
        if kind == "int":
            return int(val)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for {key}: {val!r}") from None
    return val
