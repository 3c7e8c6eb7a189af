"""Flat key-value config files for runs and sweeps.

One ``key = value`` pair per line, ``#`` starts a comment, blank lines are
ignored. No nesting, no quoting; values are parsed by the consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .protocol import MAX_ITERATIONS, NoiseSpec, ProtocolConfig, Secret, Wmrqm

__all__ = ["ConfigError", "ConfigValidationError", "parse_kv", "run_config_from_text", "SweepSpec", "sweep_spec_from_text"]


class ConfigError(ValueError):
    """Malformed config text (syntax or unparseable value)."""


class ConfigValidationError(ValueError):
    """Syntactically fine but semantically invalid configuration."""


def parse_kv(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a dict, last key wins."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        out[key] = value
    return out


def _parse_float(pairs: dict[str, str], key: str) -> float:
    try:
        return float(pairs[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {pairs[key]!r}") from exc


def _parse_int(pairs: dict[str, str], key: str) -> int:
    try:
        return int(pairs[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {pairs[key]!r}") from exc


_RUN_KEYS = {
    "parties",
    "iterations",
    "secret_k",
    "secrets",
    "channel",
    "strength",
    "wmrqm_s",
    "wmrqm_r",
    "return_channel",
    "return_strength",
}


def run_config_from_text(text: str) -> ProtocolConfig:
    """Build a protocol run configuration from config text.

    Keys: ``parties`` (receivers, 2 to 7), ``iterations`` (1 to 1000),
    ``secret_k`` or a comma-separated ``secrets`` list (one k per iteration),
    ``channel`` / ``strength``, optional ``wmrqm_s`` / ``wmrqm_r`` (both or
    neither) and optional ``return_channel`` / ``return_strength``.
    """
    pairs = parse_kv(text)
    unknown = set(pairs) - _RUN_KEYS
    if unknown:
        raise ConfigValidationError(f"unknown config key(s): {sorted(unknown)}")

    parties = _parse_int(pairs, "parties") if "parties" in pairs else 2
    iterations = _parse_int(pairs, "iterations") if "iterations" in pairs else 1
    if iterations > MAX_ITERATIONS:
        # before ``secret_k`` is repeated once per iteration
        raise ConfigValidationError(f"at most {MAX_ITERATIONS} iterations, got {iterations}")

    if "secrets" in pairs and "secret_k" in pairs:
        raise ConfigValidationError("give either secret_k or secrets, not both")
    if "secrets" in pairs:
        try:
            ks = [float(x) for x in pairs["secrets"].split(",")]
        except ValueError as exc:
            raise ConfigError(f"secrets must be comma-separated numbers: {pairs['secrets']!r}") from exc
    elif "secret_k" in pairs:
        ks = [_parse_float(pairs, "secret_k")] * iterations
    else:
        raise ConfigValidationError("missing secret_k or secrets")

    def noise(kind_key: str, strength_key: str) -> NoiseSpec | None:
        kind = pairs.get(kind_key, "none").lower()
        if kind == "none":
            if strength_key in pairs:
                raise ConfigValidationError(f"{strength_key} given without {kind_key}")
            return None
        if kind not in ("pdc", "adc"):
            raise ConfigValidationError(f"{kind_key} must be pdc, adc or none, got {kind!r}")
        if strength_key not in pairs:
            raise ConfigValidationError(f"{kind_key} = {kind} requires {strength_key}")
        return NoiseSpec(kind, _parse_float(pairs, strength_key))

    strengths = None
    if ("wmrqm_s" in pairs) != ("wmrqm_r" in pairs):
        raise ConfigValidationError("wmrqm_s and wmrqm_r must be given together")
    if "wmrqm_s" in pairs:
        strengths = _parse_float(pairs, "wmrqm_s"), _parse_float(pairs, "wmrqm_r")

    if iterations < 1:
        raise ConfigValidationError(f"need at least 1 iteration, got {iterations}")
    if len(ks) != iterations:
        raise ConfigValidationError(f"got {len(ks)} secrets for {iterations} iteration(s)")
    try:
        return ProtocolConfig(
            parties=parties,
            secrets=tuple(Secret.from_k(k) for k in ks),
            channel=noise("channel", "strength"),
            wmrqm=None if strengths is None else Wmrqm(*strengths),
            return_channel=noise("return_channel", "return_strength"),
        )
    except ValueError as exc:
        raise ConfigValidationError(str(exc)) from exc


# Parameters a sweep may bind, all dimensionless in [0, 1].
SWEEP_PARAMS = ("k", "q", "p", "s", "r", "strength")


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for the sweep command.

    ``quantities`` are evaluated per grid point; ``axes`` holds one or two
    ``(name, lo, hi, steps)`` entries (outer axis first); ``fixed`` binds
    the remaining parameters, where the value ``"r_opt"`` for ``r`` means
    the optimal reversal strength recomputed at every grid point.
    """

    quantities: tuple[str, ...]
    axes: tuple[tuple[str, float, float, int], ...]
    fixed: dict[str, float | str] = field(default_factory=dict)


def sweep_spec_from_text(text: str) -> SweepSpec:
    """Parse sweep spec text.

    Keys: ``quantity`` (name or comma list), ``axis`` and optional
    ``axis2`` as ``name, lo, hi, steps``; every other key is a fixed
    parameter binding (a number, ``r = r_opt``, or ``channel = pdc|adc|none``
    for the simulator quantity).
    """
    pairs = parse_kv(text)
    if "quantity" not in pairs:
        raise ConfigValidationError("missing quantity")
    quantities = tuple(q.strip() for q in pairs.pop("quantity").split(",") if q.strip())
    if not quantities:
        raise ConfigValidationError("quantity list is empty")

    if "axis2" in pairs and "axis" not in pairs:
        raise ConfigValidationError("axis2 given without axis")
    axes = []
    for key in ("axis", "axis2"):
        if key not in pairs:
            continue
        parts = [x.strip() for x in pairs.pop(key).split(",")]
        if len(parts) != 4:
            raise ConfigError(f"{key} must be 'name, lo, hi, steps', got {parts}")
        name = parts[0]
        try:
            lo, hi, steps = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ConfigError(f"{key} has non-numeric bounds or steps: {parts}") from exc
        axes.append((name, lo, hi, steps))
    if not axes:
        raise ConfigValidationError("missing axis")

    fixed: dict[str, float | str] = {}
    for key, value in pairs.items():
        if key == "channel":
            fixed[key] = value.lower()
        elif key == "r" and value == "r_opt":
            fixed[key] = "r_opt"
        else:
            try:
                fixed[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"fixed parameter {key} must be a number, got {value!r}") from exc
    return SweepSpec(quantities=quantities, axes=tuple(axes), fixed=fixed)
