"""Run configuration: defaults, key-value files, flag overrides, hashing.

Configuration is a flat dotted-key map over the fields of the typed
configs, which own every default and accepted range. Files hold ``key =
value`` lines (# comments allowed); command-line ``--set key=value``
overrides win over the file, which wins over defaults. The hash of the
effective configuration is embedded in result artifacts so identical runs
are recognizable byte-for-byte.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .detector import ReferenceDetector, ReferenceDetectorConfig
from .dumps import load_dump
from .errors import InvalidConfig, IoFailure, ValidationError
from .fileio import read_text
from .metrics import EvalThresholds
from .nmf import NmfConfig
from .pipeline import CLASS_NAMES, PipelineConfig
from .voxelgrid import UpsampleConfig

# Section prefix -> the typed config that owns its keys and the fields of it
# that are keys; a ``<axis>_range`` field is the key pair ``<axis>_min`` and
# ``<axis>_max``. Defaults and accepted ranges live only in those configs.
_SECTIONS = {
    "detector": (ReferenceDetectorConfig, ("seed", "voxel_size", "x_range", "y_range", "z_range",
                                           "feature_dim", "activation_threshold", "kappa",
                                           "size_floor")),
    "nmf": (NmfConfig, ("r", "max_iterations", "relative_tolerance", "seed", "clamp_negatives")),
    "upsample": (UpsampleConfig, ("range_threshold", "k")),
    "pipeline": (PipelineConfig, ("block_index", "ablation")),
    "thresholds": (EvalThresholds, CLASS_NAMES),
}


def _keys(prefix: str, name: str) -> tuple[str, ...]:
    ends = ("min", "max") if name.endswith("_range") else ("",)
    return tuple(f"{prefix}.{name.removesuffix('range')}{end}" for end in ends)


def _field(values, prefix: str, name: str):
    """One config field's value, read from its key or its range's key pair."""
    value = tuple(values[key] for key in _keys(prefix, name))
    return value if name.endswith("_range") else value[0]


def _section_defaults() -> dict[str, object]:
    out = {}
    for prefix, (config, names) in _SECTIONS.items():
        defaults = config()
        for name in names:
            value = getattr(defaults, name)
            out.update(zip(_keys(prefix, name), value if name.endswith("_range") else (value,)))
    return out


# Keys that no typed config owns come last.
_DEFAULTS: dict[str, object] = {
    **_section_defaults(),
    "detector.kind": "reference",
    "detector.dump_path": "",
    "eval.steps": 20,
    "output.dir": "out",
    "parallelism": 1,
}


def _coerce(key: str, raw: str):
    if key not in _DEFAULTS:
        raise InvalidConfig(key, "unknown configuration key")
    default = _DEFAULTS[key]
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise InvalidConfig(key, f"expected a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError as exc:
            raise InvalidConfig(key, f"expected an integer, got {raw!r}") from exc
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError as exc:
            raise InvalidConfig(key, f"expected a number, got {raw!r}") from exc
    return raw


def _check(values: dict[str, object]) -> None:
    """Raise ``InvalidConfig`` for the first key whose value is out of range:
    a section whose config fails its checks is built up again one field at a
    time, and the field whose addition fails them names the key (a range its
    ``_max``)."""
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfig(key, f"expected a finite number, got {value!r}")
    for key in ("eval.steps", "parallelism"):
        if values[key] < 1:
            raise InvalidConfig(key, f"must be >= 1, got {values[key]!r}")
    for prefix, (config, names) in _SECTIONS.items():
        fields = {name: _field(values, prefix, name) for name in names}
        try:
            config(**fields)
        except ValueError:
            for n, name in enumerate(names, start=1):
                try:
                    config(**{key: fields[key] for key in names[:n]})
                except ValueError as exc:
                    raise InvalidConfig(_keys(prefix, name)[-1], str(exc)) from None


def _canonical(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_file(path) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one run; immutable and hashable."""

    values: tuple[tuple[str, object], ...]

    def __post_init__(self):
        _check(dict(self.values))

    @classmethod
    def from_sources(cls, config_file=None, overrides=()) -> "RunConfig":
        merged = dict(_DEFAULTS)
        raw: dict[str, str] = {}
        if config_file is not None:
            raw.update(parse_config_file(config_file))
        for item in overrides:
            if "=" not in item:
                raise ValidationError(f"override {item!r} must look like key=value")
            key, value = item.split("=", 1)
            raw[key.strip()] = value.strip()
        merged.update((key, _coerce(key, value)) for key, value in raw.items())
        return cls(tuple(sorted(merged.items())))

    def get(self, key: str):
        return dict(self.values)[key]

    def with_values(self, updates: dict[str, object]) -> "RunConfig":
        """Copy with some keys replaced by already-typed values."""
        merged = dict(self.values)
        for key, value in updates.items():
            if key not in _DEFAULTS:
                raise InvalidConfig(key, "unknown configuration key")
            merged[key] = value
        return RunConfig(tuple(sorted(merged.items())))

    def config_hash(self) -> str:
        digest = hashlib.sha256()
        for key, value in self.values:
            digest.update(f"{key}={_canonical(value)}\n".encode())
        return digest.hexdigest()[:12]

    def _build(self, prefix: str, **nested):
        config, names = _SECTIONS[prefix]
        values = dict(self.values)
        return config(**{name: _field(values, prefix, name) for name in names}, **nested)

    def detector_config(self) -> ReferenceDetectorConfig:
        return self._build("detector")

    def build_detector(self):
        kind = self.get("detector.kind")
        if kind == "reference":
            return ReferenceDetector(self.detector_config())
        if kind == "dump":
            path = self.get("detector.dump_path")
            if not path:
                raise ValidationError("detector.kind=dump requires detector.dump_path")
            return load_dump(path)
        raise ValidationError(f"unknown detector kind {kind!r}")

    def pipeline_config(self) -> PipelineConfig:
        return self._build("pipeline", nmf=self._build("nmf"), upsample=self._build("upsample"))

    def thresholds(self) -> EvalThresholds:
        return self._build("thresholds")


def find_scene_files(directory) -> list[tuple[str, Path, Path | None]]:
    """Discover ``<id>.bin`` clouds with optional ``<id>.labels.json`` files."""
    root = Path(directory)
    if not root.is_dir():
        raise IoFailure(f"scene directory {directory} does not exist")
    out = []
    for bin_path in sorted(root.glob("*.bin")):
        labels = bin_path.parent / f"{bin_path.stem}.labels.json"
        out.append((bin_path.stem, bin_path, labels if labels.exists() else None))
    return out
