"""Feature-dump files: exported detector state replayed as a detector.

Binary layout (little-endian):

    magic "FFDP" | version u32=1
    grid: 7 f64 (voxel_size, x_lo, x_hi, y_lo, y_hi, z_lo, z_hi)
    block_index u32 | M u64 | d u64
    coords: M x 3 i32
    features: M x d f32, row-major
    detection count u64
    per detection: 8 f32 (x, y, z, l, w, h, yaw, score) + class id u32
    gradient record count u64
    per record: detection index u32, attribute-mask bitfield u32, M x d f32

Every count is validated against the remaining file length; voxel
coordinates must be unique and every detection, feature and gradient
value finite.
"""

from __future__ import annotations

import contextlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DetectorFailure, MalformedDump, MissingGradient, ShapeMismatch
from .fileio import read_bytes, writing
from .pipeline import CLASS_NAMES, Detection, bits_to_mask, mask_to_bits, match_detection
from .voxelgrid import GridSpec, SparseVoxelMap, _check_key_range

_MAGIC = b"FFDP"
_VERSION = 1


@dataclass
class FeatureDump:
    """One scene's exported features, detections and gradients."""

    grid: GridSpec
    block_index: int
    coords: np.ndarray  # (M, 3) int32
    features: np.ndarray  # (M, d) float32
    detections: list[Detection]
    gradients: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.int32).reshape(-1, 3)
        self.features = np.asarray(self.features, dtype=np.float32)
        if self.features.ndim != 2:
            raise ShapeMismatch(f"features must be 2-D, got {self.features.shape}")
        if len(self.features) != len(self.coords):
            raise ShapeMismatch(
                f"{len(self.coords)} coords but {len(self.features)} feature rows"
            )
        for key, grad in self.gradients.items():
            grad = np.asarray(grad, dtype=np.float32)
            if grad.shape != self.features.shape:
                raise ShapeMismatch(
                    f"gradient record {key} has shape {grad.shape}, "
                    f"features have {self.features.shape}"
                )
            self.gradients[key] = grad
            det_idx, _ = key
            if not 0 <= det_idx < len(self.detections):
                raise ShapeMismatch(f"gradient record references detection {det_idx}")
        for d in self.detections:
            if d.label not in CLASS_NAMES:
                raise ShapeMismatch(f"label {d.label!r} not in class table")


def save_dump(path, dump: FeatureDump) -> None:
    """Serialize a FeatureDump to its binary layout."""
    m, d = dump.features.shape
    parts = [
        _MAGIC,
        struct.pack("<I", _VERSION),
        struct.pack(
            "<7d",
            dump.grid.voxel_size,
            *dump.grid.x_range,
            *dump.grid.y_range,
            *dump.grid.z_range,
        ),
        struct.pack("<I", dump.block_index),
        struct.pack("<QQ", m, d),
        dump.coords.astype("<i4").tobytes(),
        dump.features.astype("<f4").tobytes(),
        struct.pack("<Q", len(dump.detections)),
    ]
    for det in dump.detections:
        parts.append(
            struct.pack("<8f", *det.center, *det.size, det.yaw, det.score)
        )
        parts.append(struct.pack("<I", CLASS_NAMES.index(det.label)))
    parts.append(struct.pack("<Q", len(dump.gradients)))
    for (det_idx, mask_bits), grad in sorted(dump.gradients.items()):
        parts.append(struct.pack("<II", det_idx, mask_bits))
        parts.append(grad.astype("<f4").tobytes())
    with writing(path, "wb") as fh:
        fh.write(b"".join(parts))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MalformedDump(
                f"truncated dump: need {n} bytes at offset {self.pos}, "
                f"file has {len(self.data)}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, shape) -> np.ndarray:
        # Python ints: a header count near 2**64 must not wrap before the
        # length check in take()
        count = math.prod(int(n) for n in shape)
        raw = self.take(count * np.dtype(dtype).itemsize)
        try:
            return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        except ValueError as exc:  # an empty array with a dimension numpy cannot index
            raise MalformedDump(f"array shape {shape}: {exc}") from exc


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise MalformedDump(f"{what}: row {int(finite.argmin())} is not finite")
    return values


def read_dump(path) -> FeatureDump:
    """Parse a dump file, validating structure against the file length."""
    data = read_bytes(path)
    r = _Reader(data)
    if r.take(4) != _MAGIC:
        raise MalformedDump("bad magic; not a feature dump")
    (version,) = r.unpack("<I")
    if version != _VERSION:
        raise MalformedDump(f"unsupported dump version {version}")
    s, x_lo, x_hi, y_lo, y_hi, z_lo, z_hi = r.unpack("<7d")
    try:
        grid = GridSpec(s, (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi))
        _check_key_range(grid)
    except ValueError as exc:
        raise MalformedDump(f"invalid grid: {exc}") from exc
    (block_index,) = r.unpack("<I")
    m, d = r.unpack("<QQ")
    coords = r.array("<i4", (m, 3))
    unique, counts = np.unique(coords, axis=0, return_counts=True)
    if len(unique) != m:
        raise MalformedDump(f"voxel coordinate {unique[counts > 1][0].tolist()} repeats")
    features = _finite(r.array("<f4", (m, d)), "features")
    (n_det,) = r.unpack("<Q")
    detections = []
    for i in range(n_det):
        x, y, z, l, w, h, yaw, score = record = r.unpack("<8f")
        (class_id,) = r.unpack("<I")
        if not all(map(math.isfinite, record)):
            raise MalformedDump(f"detection record {i} is not finite")
        if class_id >= len(CLASS_NAMES):
            raise MalformedDump(f"class id {class_id} outside class table")
        try:
            detections.append(
                Detection((x, y, z), (l, w, h), yaw, score, CLASS_NAMES[class_id])
            )
        except ValueError as exc:
            raise MalformedDump(f"invalid detection record: {exc}") from exc
    (n_grad,) = r.unpack("<Q")
    gradients = {}
    for i in range(n_grad):
        det_idx, mask_bits = r.unpack("<II")
        if det_idx >= n_det:
            raise MalformedDump(f"gradient references detection {det_idx} of {n_det}")
        gradients[(det_idx, mask_bits)] = _finite(
            r.array("<f4", (m, d)), f"gradient record {i}"
        )
    if r.pos != len(data):
        raise MalformedDump(f"{len(data) - r.pos} trailing bytes after records")
    return FeatureDump(grid, block_index, coords, features, detections, gradients)


class DumpDetector:
    """Detector interface replaying a stored FeatureDump.

    ``detect`` and ``features`` ignore the cloud argument (the dump was
    produced for exactly one scene); ``gradient`` serves only the stored
    (detection, mask) records. ``detect_subset`` refuses: a replay holds no
    detections for a perturbed cloud, so it cannot score faithfulness.
    """

    def __init__(self, dump: FeatureDump):
        self.dump = dump

    def scene(self, cloud):
        """No-op scene scope: a replay holds no per-cloud state."""
        return contextlib.nullcontext()

    def detect(self, cloud) -> list[Detection]:
        return list(self.dump.detections)

    def detect_subset(self, cloud, keep) -> list[Detection]:
        raise DetectorFailure(
            "a feature dump replays one unperturbed scene; it cannot rerun the "
            "detector on a subset of the cloud (deletion and insertion curves)"
        )

    def features(self, cloud, block_index: int) -> SparseVoxelMap:
        self._check_block(block_index)
        return SparseVoxelMap(self.dump.coords, self.dump.features, self.dump.grid)

    def gradient(self, cloud, d: Detection, mask, block_index: int) -> SparseVoxelMap:
        self._check_block(block_index)
        # dump values are float32-rounded
        det_idx = match_detection(self.dump.detections, d, atol=1e-6)
        key = (det_idx, mask_to_bits(mask))
        grad = self.dump.gradients.get(key)
        if grad is None:
            raise MissingGradient(
                f"dump has no gradient for detection {det_idx}, "
                f"mask {sorted(bits_to_mask(key[1]))}"
            )
        return SparseVoxelMap(self.dump.coords, grad, self.dump.grid)

    def _check_block(self, block_index: int):
        if block_index != self.dump.block_index:
            raise DetectorFailure(
                f"dump carries block {self.dump.block_index}, not {block_index}"
            )


def load_dump(path) -> DumpDetector:
    """Open a dump file as a replayable detector."""
    return DumpDetector(read_dump(path))


def dump_from_detector(detector, cloud: np.ndarray, block_index: int, masks=()) -> FeatureDump:
    """Capture a detector's scene state; gradients for every detection x mask."""
    with detector.scene(cloud):
        feats = detector.features(cloud, block_index)
        detections = detector.detect(cloud)
        gradients = {}
        for i, det in enumerate(detections):
            for mask in masks:
                grad = detector.gradient(cloud, det, mask, block_index)
                gradients[(i, mask_to_bits(mask))] = np.asarray(grad.values, dtype=np.float32)
    return FeatureDump(
        grid=feats.grid,
        block_index=block_index,
        coords=feats.coords,
        features=np.asarray(feats.values, dtype=np.float32),
        detections=detections,
        gradients=gradients,
    )
