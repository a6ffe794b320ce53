"""Run configuration: defaults, key-value files, flag overrides, hashing.

Configuration is a flat dotted-key map. Files hold ``key = value`` lines
(# comments allowed); command-line ``--set key=value`` overrides win over
the file, which wins over defaults. The hash of the effective
configuration is embedded in result artifacts so identical runs are
recognizable byte-for-byte.
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
from .pipeline import ABLATIONS, PipelineConfig
from .voxelgrid import UpsampleConfig

_DEFAULTS: dict[str, object] = {
    "detector.kind": "reference",
    "detector.dump_path": "",
    "detector.seed": 0,
    "detector.voxel_size": 0.25,
    "detector.x_min": 0.0,
    "detector.x_max": 24.0,
    "detector.y_min": 0.0,
    "detector.y_max": 24.0,
    "detector.z_min": 0.0,
    "detector.z_max": 4.0,
    "detector.feature_dim": 32,
    "detector.activation_threshold": 100.0,
    "detector.kappa": 4.0,
    "detector.size_floor": 1.0,
    "nmf.r": 64,
    "nmf.max_iterations": 200,
    "nmf.relative_tolerance": 1e-5,
    "nmf.seed": 0,
    "nmf.clamp_negatives": False,
    "upsample.range_threshold": 2,
    "upsample.k": 16,
    "pipeline.block_index": 3,
    "pipeline.ablation": "full",
    "thresholds.car": 0.7,
    "thresholds.pedestrian": 0.5,
    "thresholds.cyclist": 0.5,
    "eval.steps": 20,
    "output.dir": "out",
    "parallelism": 1,
}


def _at_least(low):
    return (lambda v: v >= low), f"must be >= {low}"


def _above(low):
    return (lambda v: v > low), f"must be > {low}"


_FRACTION = (lambda v: 0.0 < v <= 1.0), "must be in (0, 1]"

# Accepted values of every key that has a range; each float key must also be
# finite. A RunConfig checks them when it is made, so a bad value fails before
# any work and names its key.
_RULES = {
    "detector.seed": _at_least(0),
    "detector.voxel_size": _above(0.0),
    "detector.feature_dim": _at_least(5),
    "detector.size_floor": _above(0.0),
    "nmf.r": _at_least(1),
    "nmf.max_iterations": _at_least(1),
    "nmf.relative_tolerance": _above(0.0),
    "nmf.seed": _at_least(0),
    "upsample.range_threshold": _at_least(0),
    "upsample.k": _at_least(1),
    "pipeline.block_index": ((lambda v: 1 <= v <= 4), "must be in 1..4"),
    "pipeline.ablation": ((lambda v: v in ABLATIONS), f"must be one of {ABLATIONS}"),
    "thresholds.car": _FRACTION,
    "thresholds.pedestrian": _FRACTION,
    "thresholds.cyclist": _FRACTION,
    "eval.steps": _at_least(1),
    "parallelism": _at_least(1),
}


def _coerce(key: str, raw: str):
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
    """Raise ``InvalidConfig`` for the first key whose value is out of range."""
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfig(key, f"expected a finite number, got {value!r}")
        if key in _RULES:
            within, rule = _RULES[key]
            if not within(value):
                raise InvalidConfig(key, f"{rule}, got {value!r}")
    for axis in "xyz":
        low, high = f"detector.{axis}_min", f"detector.{axis}_max"
        if not values[low] < values[high]:
            raise InvalidConfig(high, f"must be > {low}, got {values[high]!r}")


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
        for key, value in raw.items():
            if key not in _DEFAULTS:
                raise InvalidConfig(key, "unknown configuration key")
            merged[key] = _coerce(key, value)
        return cls(tuple(sorted(merged.items())))

    def get(self, key: str):
        for k, v in self.values:
            if k == key:
                return v
        raise KeyError(key)

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

    def detector_config(self) -> ReferenceDetectorConfig:
        return ReferenceDetectorConfig(
            seed=self.get("detector.seed"),
            voxel_size=self.get("detector.voxel_size"),
            x_range=(self.get("detector.x_min"), self.get("detector.x_max")),
            y_range=(self.get("detector.y_min"), self.get("detector.y_max")),
            z_range=(self.get("detector.z_min"), self.get("detector.z_max")),
            feature_dim=self.get("detector.feature_dim"),
            activation_threshold=self.get("detector.activation_threshold"),
            kappa=self.get("detector.kappa"),
            size_floor=self.get("detector.size_floor"),
        )

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
        return PipelineConfig(
            nmf=NmfConfig(
                r=self.get("nmf.r"),
                max_iterations=self.get("nmf.max_iterations"),
                relative_tolerance=self.get("nmf.relative_tolerance"),
                seed=self.get("nmf.seed"),
                clamp_negatives=self.get("nmf.clamp_negatives"),
            ),
            upsample=UpsampleConfig(
                range_threshold=self.get("upsample.range_threshold"),
                k=self.get("upsample.k"),
            ),
            block_index=self.get("pipeline.block_index"),
            ablation=self.get("pipeline.ablation"),
        )

    def thresholds(self) -> EvalThresholds:
        return EvalThresholds(
            car=self.get("thresholds.car"),
            pedestrian=self.get("thresholds.pedestrian"),
            cyclist=self.get("thresholds.cyclist"),
        )


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
