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
    """``raw`` as the type of ``key``'s default; an unknown key's value stays
    text for ``_check`` to reject."""
    default = _DEFAULTS.get(key)
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


def _check(values: dict[str, object]) -> dict[str, object]:
    """The typed config of each section, built once from ``values``.

    Raises ``InvalidConfig`` for the first key that is unknown or whose
    value is out of range: a section whose config fails its checks is built
    up again one field at a time, and the field whose addition fails them
    names the key (a range its ``_max``)."""
    for key, value in values.items():
        if key not in _DEFAULTS:
            raise InvalidConfig(key, "unknown configuration key")
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfig(key, f"expected a finite number, got {value!r}")
    for key in ("eval.steps", "parallelism"):
        if values[key] < 1:
            raise InvalidConfig(key, f"must be >= 1, got {values[key]!r}")
    kind = values["detector.kind"]
    if kind not in ("reference", "dump"):
        raise InvalidConfig("detector.kind", f"expected reference or dump, got {kind!r}")
    if kind == "dump" and not values["detector.dump_path"]:
        raise InvalidConfig("detector.dump_path", "required when detector.kind=dump")
    built: dict[str, object] = {}
    for prefix, (config, names) in _SECTIONS.items():
        fields = {name: _field(values, prefix, name) for name in names}
        nested = {p: built[p] for p in ("nmf", "upsample")} if prefix == "pipeline" else {}
        try:
            built[prefix] = config(**fields, **nested)
        except ValueError:
            for n, name in enumerate(names, start=1):
                try:
                    config(**{key: fields[key] for key in names[:n]}, **nested)
                except ValueError as exc:
                    raise InvalidConfig(_keys(prefix, name)[-1], str(exc)) from None
    return built


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
        # not a field: equality, hashing and config_hash read only ``values``
        object.__setattr__(self, "_configs", _check(dict(self.values)))

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
        return RunConfig(tuple(sorted({**dict(self.values), **updates}.items())))

    def config_hash(self) -> str:
        digest = hashlib.sha256()
        for key, value in self.values:
            digest.update(f"{key}={_canonical(value)}\n".encode())
        return digest.hexdigest()[:12]

    def detector_config(self) -> ReferenceDetectorConfig:
        return self._configs["detector"]

    def build_detector(self):
        if self.get("detector.kind") == "dump":
            return load_dump(self.get("detector.dump_path"))
        return ReferenceDetector(self.detector_config())

    def pipeline_config(self) -> PipelineConfig:
        return self._configs["pipeline"]

    def thresholds(self) -> EvalThresholds:
        return self._configs["thresholds"]


def find_scene_files(directory) -> list[tuple[str, Path, Path]]:
    """``(id, <id>.bin, <id>.labels.json)`` per runnable scene, in id order.

    Raises ``ValidationError`` for a directory with no ``.bin`` and for a
    ``.bin`` without its labels, and ``IoFailure`` for a ``.bin`` or labels
    that are not a regular file, so a run fails before any scene is read."""
    root = Path(directory)
    if not root.is_dir():
        raise IoFailure(f"scene directory {directory} does not exist")
    scenes = [(p.stem, p, p.with_name(f"{p.stem}.labels.json")) for p in sorted(root.glob("*.bin"))]
    if not scenes:
        raise ValidationError(f"no .bin scenes found in {directory}")
    for _, bin_path, labels in scenes:
        if not bin_path.is_file():  # a directory, say, that reading would fail on
            raise IoFailure(f"cannot read {bin_path}: not a regular file")
        if not labels.exists():
            raise ValidationError(f"scene {bin_path} has no companion .labels.json")
        if not labels.is_file():
            raise IoFailure(f"cannot read {labels}: not a regular file")
    return scenes
