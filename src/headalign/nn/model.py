"""Two-branch heading-regression network: builder, forward/backward,
checkpoint round trip.

Branch 1 consumes the six body-frame inertial rows (rate-matched to the
aiding rate), branch 2 the six navigation-frame reference rows.  Each
branch runs three conv stages (channels 1 -> 16 -> 32 -> 64); the branch
outputs are stacked along the height axis and fused by one or two more
conv stages (64 -> 128), then flattened into a 512/128/32/1 FC stack
with tanh and dropout between the first three FC layers.  The scalar
output is the heading estimate in radians at the window end.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np
from numpy.typing import NDArray

from ..attitude import wrap_angle
from ..errors import HeadAlignError, InvalidArgumentError, ShapeError
from ..fields import check_entry, check_fields, from_dict
from ..rng import stream
from .layers import Conv2d, Dropout, Flatten, Layer, LeakyReLU, Linear, MaxPool1x2, Tanh

__all__ = [
    "VARIATIONS",
    "HeadingNetConfig",
    "HeadingModel",
    "build_headingnet",
    "parameter_count",
    "predict_heading",
    "save_checkpoint",
    "load_checkpoint",
]

Array = NDArray[np.float64]

CHECKPOINT_MAGIC = b"HDGNET1\n"
CHECKPOINT_VERSION = "1"

#: One row per variation, keyed by alignment time T in seconds; the only
#: per-variation table.  Architecture (``HeadingNetConfig`` fields):
#: k1/k2/k3 the (height, width) kernels of the three branch conv stages,
#: pool3 whether the third branch stage pools, k4/k5 the fusion conv
#: kernels (k5 None for a single fusion stage), leaky_alpha the LeakyReLU
#: slope, dropout_p the probability of dropping an FC activation.  Stock
#: training (``TrainConfig`` fields): epochs, loss_scale of the cyclic
#: loss, AdamW lr and weight_decay, scheduler_step epochs per lr decay.
VARIATIONS: dict[int, dict] = {
    10: dict(k1=(2, 10), k2=(2, 7), k3=(2, 5), pool3=False, k4=(3, 3), k5=None, leaky_alpha=0.05, dropout_p=0.2,
             epochs=1000, loss_scale=10.0, lr=0.0009, weight_decay=0.08, scheduler_step=120),
    30: dict(k1=(2, 30), k2=(2, 22), k3=(2, 15), pool3=False, k4=(2, 3), k5=(2, 3), leaky_alpha=0.05, dropout_p=0.2,
             epochs=1000, loss_scale=10.0, lr=0.0008, weight_decay=0.08, scheduler_step=120),
    60: dict(k1=(2, 60), k2=(2, 45), k3=(2, 30), pool3=False, k4=(2, 6), k5=(2, 3), leaky_alpha=0.05, dropout_p=0.2,
             epochs=400, loss_scale=10.0, lr=0.0008, weight_decay=0.08, scheduler_step=80),
    90: dict(k1=(2, 90), k2=(2, 67), k3=(2, 45), pool3=True, k4=(2, 4), k5=(2, 3), leaky_alpha=0.1, dropout_p=0.2,
             epochs=500, loss_scale=100.0, lr=0.0005, weight_decay=0.8, scheduler_step=150),
    120: dict(k1=(2, 120), k2=(2, 90), k3=(2, 60), pool3=True, k4=(2, 5), k5=(2, 3), leaky_alpha=0.05, dropout_p=0.3,
              epochs=300, loss_scale=10.0, lr=0.0006, weight_decay=0.08, scheduler_step=50),
}

#: FC widths after the computed flatten size.
FC_WIDTHS = (512, 128, 32, 1)

#: IMU-to-aiding rate ratio handled by the input average pool.
RATE_MATCH_K = 20

#: Per-row normalization statistics of the two branch inputs.
NORM_KEYS = ("mean1", "std1", "mean2", "std2")


@dataclass(frozen=True)
class HeadingNetConfig:
    """Everything needed to rebuild a variation's architecture."""

    t_align: int
    k1: tuple[int, int]
    k2: tuple[int, int]
    k3: tuple[int, int]
    pool3: bool
    k4: tuple[int, int]
    leaky_alpha: float
    dropout_p: float
    k5: tuple[int, int] | None = None
    avgpool_k: int = RATE_MATCH_K
    input_rows: int = 6

    @property
    def input_width(self) -> int:
        return 5 * self.t_align

    def __post_init__(self):
        check_fields(self)
        for name in ("t_align", "k1", "k2", "k3", "k4", "k5", "avgpool_k", "input_rows"):
            v = getattr(self, name)
            if v is not None and min(v if isinstance(v, tuple) else (v,)) < 1:
                raise InvalidArgumentError(f"{name} must be positive, got {v}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "HeadingNetConfig":
        """Inverse of ``to_dict``; see ``fields.from_dict``."""
        return from_dict(cls, d, "config")

    @classmethod
    def for_variation(cls, t_align: int) -> "HeadingNetConfig":
        return cls(t_align=t_align, **variation_fields(t_align, cls))


def variation_fields(t_align: int, cls) -> dict:
    """The ``VARIATIONS`` row of ``t_align`` restricted to the fields of
    the dataclass ``cls``; an unknown variation raises ``InvalidArgumentError``."""
    if t_align not in VARIATIONS:
        raise InvalidArgumentError(f"unknown variation {t_align}; expected one of {sorted(VARIATIONS)}")
    row = VARIATIONS[t_align]
    return {f.name: row[f.name] for f in fields(cls) if f.name in row}


def _branch_layers(cfg: HeadingNetConfig, tag: str) -> list[Layer]:
    a = cfg.leaky_alpha
    layers: list[Layer] = [
        # the network input needs no gradient
        Conv2d(1, 16, cfg.k1, name=f"{tag}.conv1", input_grad=False),
        MaxPool1x2(name=f"{tag}.pool1"),
        LeakyReLU(a, name=f"{tag}.act1"),
        Conv2d(16, 32, cfg.k2, name=f"{tag}.conv2"),
        MaxPool1x2(name=f"{tag}.pool2"),
        LeakyReLU(a, name=f"{tag}.act2"),
        Conv2d(32, 64, cfg.k3, name=f"{tag}.conv3"),
    ]
    if cfg.pool3:
        layers.append(MaxPool1x2(name=f"{tag}.pool3"))
    layers.append(LeakyReLU(a, name=f"{tag}.act3"))
    return layers


def _run(layers: list[Layer], x: Array, training: bool, rng, probe=None) -> Array:
    for layer in layers:
        x = layer.forward(x, training=training, rng=rng)
        if probe is not None:
            probe(layer, x)
    return x


def _uncache(layer: Layer, y: Array) -> None:
    """Walk probe: drop the forward cache of the layer the walk just passed."""
    layer._cache = None


def _run_back(layers: list[Layer], dy: Array) -> Array:
    for layer in reversed(layers):
        dy = layer.backward(dy)
    return dy


class _NonFinite(Exception):
    """Stops a ``check_finite`` walk at the first layer whose output is non-finite."""


class HeadingModel:
    """Parameter container plus forward/backward over the fixed layout."""

    def __init__(self, config: HeadingNetConfig):
        self.config = config
        self.branch1 = _branch_layers(config, "b1")
        self.branch2 = _branch_layers(config, "b2")

        a = config.leaky_alpha
        trunk: list[Layer] = [Conv2d(64, 128, config.k4, name="fuse.conv4"), LeakyReLU(a, name="fuse.act4")]
        if config.k5 is not None:
            trunk += [Conv2d(128, 128, config.k5, name="fuse.conv5"), LeakyReLU(a, name="fuse.act5")]
        trunk.append(Flatten(name="fuse.flatten"))
        self.trunk = trunk

        self.flatten_size = self._probe_flatten()
        fc: list[Layer] = []
        widths = (self.flatten_size,) + FC_WIDTHS
        for i, (nin, nout) in enumerate(zip(widths[:-1], widths[1:]), start=1):
            fc.append(Linear(nin, nout, name=f"fc{i}"))
            if i < len(FC_WIDTHS):
                fc.append(Tanh(name=f"fc{i}.tanh"))
                fc.append(Dropout(config.dropout_p, name=f"fc{i}.dropout"))
        self.fc = fc

        self.training = False
        rows = config.input_rows
        # identity normalization until training statistics are frozen in
        self.norm = {
            "mean1": np.zeros(rows), "std1": np.ones(rows),
            "mean2": np.zeros(rows), "std2": np.ones(rows),
        }

    def _probe_flatten(self) -> int:
        cfg = self.config
        x = np.zeros((1, 1, cfg.input_rows, cfg.input_width))
        h = _run(self.branch1, x, False, None, _uncache)
        z = np.concatenate([h, h], axis=2)
        return _run(self.trunk, z, False, None, _uncache).shape[1]

    # -- parameter plumbing -------------------------------------------------

    def layers(self) -> list[Layer]:
        return self.branch1 + self.branch2 + self.trunk + self.fc

    def params(self) -> list[tuple[str, Array, Array]]:
        return [p for layer in self.layers() for p in layer.params()]

    def train(self) -> "HeadingModel":
        self.training = True
        return self

    def eval(self) -> "HeadingModel":
        self.training = False
        return self

    # -- forward / backward -------------------------------------------------

    def _normalize(self, x: Array, which: str) -> Array:
        mean, std = self.norm[f"mean{which}"], self.norm[f"std{which}"]
        return (x - mean[None, None, :, None]) / std[None, None, :, None]

    def forward(self, x1: Array, x2: Array, rng=None) -> Array:
        """Window batch (N, 1, rows, width) x2 -> heading estimates (N,)."""
        return self._walk(x1, x2, self.training, rng)

    def predict(self, x1: Array, x2: Array) -> Array:
        """``forward`` in eval mode, wrapped to (-pi, pi], keeping no forward
        cache: the walk clears each layer's as it passes the layer.  A model
        in training mode raises ``HeadAlignError``."""
        if self.training:
            raise HeadAlignError("model must be in eval mode for inference")
        return wrap_angle(self._walk(x1, x2, False, None, _uncache))

    def _walk(self, x1: Array, x2: Array, training: bool, rng, probe=None) -> Array:
        """``forward`` in the given mode; ``probe(layer, y)``, if given, sees
        each layer's output ``y`` as the walk goes."""
        cfg = self.config
        want = (1, cfg.input_rows, cfg.input_width)
        if x1.ndim != 4 or x1.shape[1:] != want or x2.shape != x1.shape:
            raise ShapeError(
                f"expected two (N, 1, {cfg.input_rows}, {cfg.input_width}) inputs, "
                f"got {x1.shape} and {x2.shape}"
            )
        h1 = _run(self.branch1, self._normalize(x1, "1"), training, rng, probe)
        h2 = _run(self.branch2, self._normalize(x2, "2"), training, rng, probe)
        self._h_rows = h1.shape[2]
        z = np.concatenate([h1, h2], axis=2)
        z = _run(self.trunk, z, training, rng, probe)
        z = _run(self.fc, z, training, rng, probe)
        return z[:, 0]

    def backward(self, dpred: Array) -> None:
        """Accumulate parameter gradients from dloss/dpred (N,).  Each
        layer's backward consumes its forward cache, so the activations of
        the layers already passed are freed as the walk goes."""
        dz = _run_back(self.trunk, _run_back(self.fc, dpred[:, None]))
        _run_back(self.branch1, dz[:, :, : self._h_rows, :])
        _run_back(self.branch2, dz[:, :, self._h_rows :, :])

    def check_finite(self, x1: Array, x2: Array) -> str | None:
        """Name the first layer whose output is non-finite, else None.  The
        walk is ``predict``'s, in eval mode; afterwards no layer holds a
        cache, those past the layer where the walk stops included.
        ``training`` stays as it was."""

        def probe(layer: Layer, y: Array) -> None:
            _uncache(layer, y)
            if not np.isfinite(y).all():
                raise _NonFinite(layer.name)

        try:
            self._walk(x1, x2, False, None, probe)
        except _NonFinite as exc:
            return exc.args[0]
        finally:
            for layer in self.layers():
                layer._cache = None
        return None


def build_headingnet(t_align: int, seed: int = 0) -> HeadingModel:
    """Construct a variation and initialize weights uniform over
    +-sqrt(6 / fan_in) from per-parameter keyed streams; biases zero."""
    model = HeadingModel(HeadingNetConfig.for_variation(t_align))
    for name, p, _ in model.params():
        if name.endswith(".b"):
            continue
        bound = np.sqrt(6.0 / math.prod(p.shape[1:]))  # fan_in
        p[...] = stream(seed, "init", name).uniform(-bound, bound, p.shape)
    return model


def parameter_count(model: HeadingModel) -> int:
    return sum(p.size for _, p, _ in model.params())


def predict_heading(model: HeadingModel, x1: Array, x2: Array) -> float:
    """Single-window ``HeadingModel.predict``; the output is wrapped to
    (-pi, pi].  Each input is one (1, rows, width) window, or a batch
    holding only it; a batch of another size raises ``ShapeError``."""
    x1, x2 = (x[None] if x.ndim == 3 else x for x in (x1, x2))
    if x1.shape[:1] != (1,) or x2.shape[:1] != (1,):
        raise ShapeError(f"inference takes one window, got inputs {x1.shape} and {x2.shape}")
    return float(model.predict(x1, x2)[0])


# -- checkpoint ----------------------------------------------------------


def _first_non_finite(model: HeadingModel) -> str | None:
    """Name of the first parameter or normalization array holding NaN or inf."""
    arrays = [(name, p) for name, p, _ in model.params()] + list(model.norm.items())
    return next((name for name, a in arrays if not np.isfinite(a).all()), None)


def save_checkpoint(model: HeadingModel, path: str) -> None:
    """Single-file checkpoint: magic, JSON header (config, normalization,
    parameter manifest, sha256 of the data section), then raw
    little-endian float64 parameter blocks.  A model holding NaN or inf
    is refused."""
    if (bad := _first_non_finite(model)) is not None:
        raise InvalidArgumentError(f"refusing to save a checkpoint: {bad} is not finite")
    blobs = []
    manifest = []
    offset = 0
    for name, p, _ in model.params():
        raw = np.ascontiguousarray(p, dtype="<f8").tobytes()
        manifest.append({"name": name, "shape": list(p.shape), "offset": offset, "nbytes": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    data = b"".join(blobs)
    header = {
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "norm": {k: v.tolist() for k, v in model.norm.items()},
        "manifest": manifest,
        "checksum": hashlib.sha256(data).hexdigest(),
    }
    hdr = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(hdr)))
        fh.write(hdr)
        fh.write(data)


#: Field annotations of a checkpoint manifest entry.
_MANIFEST_FIELDS = {"name": "str", "shape": "tuple[int, ...]", "offset": "int", "nbytes": "int"}


def _manifest_entries(manifest) -> list[dict]:
    """The header's manifest, each entry checked against ``_MANIFEST_FIELDS``."""
    if not isinstance(manifest, list):
        raise InvalidArgumentError(f"manifest must be a list, got {type(manifest).__name__}")
    return [check_entry(f"manifest entry {i}", entry, _MANIFEST_FIELDS) for i, entry in enumerate(manifest)]


def load_checkpoint(path: str) -> HeadingModel:
    """Rebuild a model from a checkpoint; verifies the data checksum and
    that every parameter and normalization statistic is finite.  A
    truncated or malformed header, a missing header key or field, a field
    of the wrong type or size, a manifest that does not list each
    parameter once, or a manifest entry reaching outside the data section
    raises ``HeadAlignError``."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise HeadAlignError(f"{path}: not a model checkpoint")
        try:
            (hlen,) = struct.unpack("<Q", fh.read(8))
            header = json.loads(fh.read(hlen))
        except (struct.error, ValueError) as exc:  # JSON and UTF-8 errors are ValueErrors
            raise HeadAlignError(f"{path}: malformed checkpoint header: {exc}") from exc
        data = fh.read()
    if not isinstance(header, dict):
        raise HeadAlignError(f"{path}: checkpoint header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise HeadAlignError(f"{path}: unsupported checkpoint version {header.get('version')!r}")
    missing = sorted({"config", "norm", "manifest", "checksum"} - header.keys())
    if missing:
        raise HeadAlignError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    if hashlib.sha256(data).hexdigest() != header["checksum"]:
        raise HeadAlignError(f"{path}: checkpoint data corrupted (checksum mismatch)")
    try:
        config = HeadingNetConfig.from_dict(header["config"])
        norm = check_entry("norm", header["norm"], dict.fromkeys(NORM_KEYS, "tuple[float, ...]"))
        if short := [key for key, v in norm.items() if len(v) != config.input_rows]:
            raise InvalidArgumentError(f"norm field {short[0]} must be {config.input_rows} numbers, got {norm[short[0]]!r}")
        manifest = _manifest_entries(header["manifest"])
    except InvalidArgumentError as exc:
        raise HeadAlignError(f"{path}: malformed checkpoint: {exc}") from None

    model = HeadingModel(config)
    model.norm = {key: np.array(v) for key, v in norm.items()}
    params = {name: p for name, p, _ in model.params()}
    names = [entry["name"] for entry in manifest]
    if unknown := [name for name in names if name not in params]:
        raise HeadAlignError(f"{path}: unknown parameter {unknown[0]!r} in manifest")
    if sorted(names) != sorted(params):
        absent = [name for name in params if name not in names]
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise HeadAlignError(
            f"{path}: manifest does not list each parameter once "
            f"(missing {absent}, repeated {repeated})"
        )
    for entry in manifest:
        name = entry["name"]
        p = params[name]
        shape = entry["shape"]
        if shape != p.shape:
            raise ShapeError(f"{path}: {name} shape {shape} != expected {p.shape}")
        lo, nbytes = entry["offset"], entry["nbytes"]
        if not (nbytes == 8 * p.size and 0 <= lo <= len(data) - nbytes):
            raise HeadAlignError(
                f"{path}: manifest range of {name} (offset {lo!r}, {nbytes!r} bytes) is not "
                f"{8 * p.size} bytes inside the {len(data)}-byte data section"
            )
        p[...] = np.frombuffer(data[lo : lo + nbytes], dtype="<f8").reshape(shape)
    if (bad := _first_non_finite(model)) is not None:
        raise HeadAlignError(f"{path}: {bad} is not finite")
    return model.eval()
