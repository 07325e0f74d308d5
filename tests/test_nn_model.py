from __future__ import annotations

import json
import os
import struct

import numpy as np
import pytest

from headalign.attitude import angle_diff, wrap_angle
from headalign.errors import HeadAlignError, InvalidArgumentError, ShapeError
from headalign.nn.data import make_windows
from headalign.nn.model import (
    FC_WIDTHS,
    VARIATIONS,
    HeadingNetConfig,
    build_headingnet,
    load_checkpoint,
    parameter_count,
    predict_heading,
    save_checkpoint,
)
from headalign.nn.train import default_train_config
from headalign.rng import stream
from headalign.simulate import DEFAULT_SENSORS, scenario_bank, simulate_recording

GOLDEN = json.load(open(os.path.join(os.path.dirname(__file__), "data", "param_counts.json")))
VARIATION_GOLDEN = json.load(open(os.path.join(os.path.dirname(__file__), "data", "variations.json")))


def arithmetic_param_count(t_align: int) -> tuple[int, int]:
    """Independent shape-walk oracle: (total params, flatten size)."""
    v = VARIATIONS[t_align]

    def conv(h, w, k):
        return h - k[0] + 1, w - k[1] + 1

    h, w = 6, 5 * t_align
    h, w = conv(h, w, v["k1"])
    w //= 2
    h, w = conv(h, w, v["k2"])
    w //= 2
    h, w = conv(h, w, v["k3"])
    if v["pool3"]:
        w //= 2

    def conv_params(cin, cout, k):
        return cout * cin * k[0] * k[1] + cout

    branch = conv_params(1, 16, v["k1"]) + conv_params(16, 32, v["k2"]) + conv_params(32, 64, v["k3"])
    h2, w2 = conv(2 * h, w, v["k4"])
    total = 2 * branch + conv_params(64, 128, v["k4"])
    if v["k5"] is not None:
        h2, w2 = conv(h2, w2, v["k5"])
        total += conv_params(128, 128, v["k5"])
    flat = 128 * h2 * w2
    widths = (flat,) + FC_WIDTHS
    for nin, nout in zip(widths[:-1], widths[1:]):
        total += nout * nin + nout
    return total, flat


@pytest.mark.parametrize("t_align", [10, 30, 60, 90, 120])
def test_parameter_count_matches_goldens(t_align):
    model = build_headingnet(t_align, seed=0)
    count = parameter_count(model)
    oracle_count, oracle_flat = arithmetic_param_count(t_align)
    assert count == oracle_count
    assert model.flatten_size == oracle_flat
    assert count == GOLDEN[str(t_align)]["params"]
    assert model.flatten_size == GOLDEN[str(t_align)]["flatten"]


def test_unknown_variation_rejected():
    with pytest.raises(InvalidArgumentError):
        HeadingNetConfig.for_variation(45)


@pytest.mark.parametrize("t_align", [10, 30, 60, 90, 120])
def test_variation_table_matches_goldens(t_align):
    """Architecture and stock training fields of each variation, pinned."""
    golden = VARIATION_GOLDEN[str(t_align)]
    assert json.loads(json.dumps(HeadingNetConfig.for_variation(t_align).to_dict())) == golden["config"]
    cfg = default_train_config(t_align, seed=0)
    assert {k: getattr(cfg, k) for k in golden["train"]} == golden["train"]


def test_config_round_trip():
    for t in (10, 120):
        cfg = HeadingNetConfig.for_variation(t)
        back = HeadingNetConfig.from_dict(cfg.to_dict())
        assert back == cfg


def test_build_is_seed_deterministic():
    a = build_headingnet(10, seed=4)
    b = build_headingnet(10, seed=4)
    c = build_headingnet(10, seed=5)
    names = [n for n, _, _ in a.params()]
    assert len(names) == len(set(names))  # unique parameter names
    for (_, pa, _), (_, pb, _), (_, pc, _) in zip(a.params(), b.params(), c.params()):
        np.testing.assert_array_equal(pa, pb)
    assert any(
        not np.array_equal(pa, pc) for (_, pa, _), (_, pc, _) in zip(a.params(), c.params())
    )


def test_init_bounds_and_zero_biases():
    model = build_headingnet(10, seed=1)
    for name, p, _ in model.params():
        if name.endswith(".b"):
            np.testing.assert_array_equal(p, np.zeros_like(p))
        else:
            fan_in = p.shape[1] * p.shape[2] * p.shape[3] if p.ndim == 4 else p.shape[1]
            bound = np.sqrt(6.0 / fan_in)
            assert np.max(np.abs(p)) <= bound
            assert np.max(np.abs(p)) > 0.5 * bound  # uniform draw fills the range


def _inputs(t_align, n=2, seed=30):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=(n, 1, 6, 5 * t_align))
    x2 = rng.normal(size=(n, 1, 6, 5 * t_align))
    return x1, x2


def test_forward_shape_checks():
    model = build_headingnet(10, seed=0)
    x1, x2 = _inputs(10)
    assert model.forward(x1, x2).shape == (2,)
    with pytest.raises(ShapeError):
        model.forward(x1[:, :, :, :-1], x2[:, :, :, :-1])
    with pytest.raises(ShapeError):
        model.forward(x1, x2[:, :, :5, :])


def test_eval_forward_is_bit_deterministic():
    model = build_headingnet(10, seed=2).eval()
    x1, x2 = _inputs(10)
    y1 = model.forward(x1, x2)
    y2 = model.forward(x1, x2)
    np.testing.assert_array_equal(y1, y2)


def test_training_dropout_changes_output():
    model = build_headingnet(10, seed=2)
    x1, x2 = _inputs(10)
    y_eval = model.eval().forward(x1, x2)
    y_train = model.train().forward(x1, x2, rng=stream(0, "drop"))
    assert not np.array_equal(y_eval, y_train)
    # same dropout stream reproduces the same stochastic forward
    y_again = model.forward(x1, x2, rng=stream(0, "drop"))
    np.testing.assert_array_equal(y_train, y_again)
    model.eval()


def test_normalization_rows_are_applied():
    model = build_headingnet(10, seed=3).eval()
    x1, x2 = _inputs(10)
    base = model.forward(x1, x2)
    model.norm["mean1"] = np.full(6, 0.5)
    model.norm["std1"] = np.full(6, 2.0)
    shifted = model.forward(2.0 * x1 + 0.5, x2)
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_predict_requires_eval_mode():
    model = build_headingnet(10, seed=0).train()
    x1, x2 = _inputs(10, n=1)
    with pytest.raises(HeadAlignError):
        predict_heading(model, x1, x2)


def test_predict_rejects_a_batch_of_windows():
    model = build_headingnet(10, seed=0).eval()
    x1, x2 = _inputs(10, n=4)
    with pytest.raises(ShapeError, match=r"one window, got inputs \(4, 1, 6, 50\)"):
        predict_heading(model, x1, x2)
    with pytest.raises(ShapeError, match="one window"):
        predict_heading(model, x1[0], x2)
    # one window, with or without its batch axis
    assert predict_heading(model, x1[:1], x2[:1]) == predict_heading(model, x1[0], x2[0])


def test_zeroed_final_layer_outputs_its_bias_wrapped():
    model = build_headingnet(10, seed=0).eval()
    last = model.fc[-1]
    last.W[...] = 0.0
    last.b[...] = 10.0  # beyond pi: must come back wrapped
    x1, x2 = _inputs(10, n=1, seed=31)
    u1, u2 = _inputs(10, n=1, seed=32)
    a = predict_heading(model, x1, x2)
    b = predict_heading(model, u1, u2)
    assert a == b == pytest.approx(float(np.arctan2(np.sin(10.0), np.cos(10.0))), abs=1e-12)


@pytest.mark.parametrize("layer", ["b1.conv2", "b2.conv1", "fuse.conv4", "fc2"])
@pytest.mark.parametrize("training", [False, True])
def test_check_finite_names_first_bad_layer(layer, training):
    model = build_headingnet(10, seed=0)
    model.training = training
    x1, x2 = _inputs(10, n=1)
    assert model.check_finite(x1, x2) is None
    next(l for l in model.layers() if l.name == layer).W.flat[0] = np.nan
    assert model.check_finite(x1, x2) == layer
    assert model.training is training


def _cached(model):
    return [layer.name for layer in model.layers() if layer._cache is not None]


def test_inference_walks_keep_no_forward_cache():
    """forward keeps every layer's cache for a backward; predict,
    predict_heading and check_finite clear each one as they pass it, and
    a freshly built model holds none."""
    model = build_headingnet(10, seed=0).eval()
    assert _cached(model) == []
    x1, x2 = _inputs(10, n=3)
    everything = [layer.name for layer in model.layers()]
    for infer in (
        lambda: model.predict(x1, x2),
        lambda: predict_heading(model, x1[:1], x2[:1]),
        lambda: model.check_finite(x1, x2),
    ):
        model.forward(x1, x2)
        assert _cached(model) == everything
        infer()
        assert _cached(model) == []
    bad = x1.copy()
    bad[1, 0, 2, 7] = np.nan
    model = build_headingnet(10, seed=0)
    assert model.check_finite(bad, x2) == "b1.conv1"
    assert _cached(model) == []


@pytest.mark.parametrize("bad_layer", [None, "fc1"])
def test_check_finite_after_a_training_forward_keeps_no_cache(bad_layer):
    """The diverged-step path of ``train``: a training forward fills every
    cache, then ``check_finite`` runs.  No layer holds a cache afterwards,
    also when the walk stops early at a non-finite layer."""
    model = build_headingnet(10, seed=0)
    if bad_layer is not None:
        next(l for l in model.layers() if l.name == bad_layer).W.flat[0] = np.nan
    x1, x2 = _inputs(10, n=64)
    model.train().forward(x1, x2, rng=stream(0, "dropout"))
    assert _cached(model) == [layer.name for layer in model.layers()]
    assert model.check_finite(x1, x2) == bad_layer
    assert _cached(model) == []
    assert model.training


def test_batched_predict_rejects_training_mode():
    model = build_headingnet(10, seed=0).train()
    with pytest.raises(HeadAlignError, match="eval mode"):
        model.predict(*_inputs(10, n=2))


@pytest.fixture(scope="module")
def seed42_bank():
    """The bank of ``simulate --seed 42 --duration 120``."""
    return [simulate_recording(cfg, DEFAULT_SENSORS) for cfg in scenario_bank(42, duration=120.0)]


@pytest.mark.parametrize("t_align", sorted(VARIATIONS))
def test_batched_predict_matches_the_per_window_loop(seed42_bank, t_align):
    """One batched predict over a bank's eval windows against one
    predict_heading per window.  A batch's GEMMs sum in another order
    than batch-1 GEMMs, so the two differ by rounding: measured at most
    7.7e-15 rad over the five variations; asserted to 1e-12 rad.
    predict_heading itself is bit-identical to the wrapped first output
    of forward."""
    model = build_headingnet(t_align, seed=42)
    ws = make_windows(seed42_bank, float(t_align), "eval")
    batched = model.predict(ws.x1, ws.x2)
    assert batched.shape == (len(ws),)
    loop = np.array([predict_heading(model, ws.x1[k], ws.x2[k]) for k in range(len(ws))])
    assert np.abs(angle_diff(batched, loop)).max() <= 1e-12
    for k in range(len(ws)):
        assert loop[k] == float(wrap_angle(model.forward(ws.x1[k : k + 1], ws.x2[k : k + 1])[0]))


class TestCheckpoint:
    def _model(self):
        model = build_headingnet(10, seed=6).eval()
        model.norm = {
            "mean1": np.linspace(-1, 1, 6),
            "std1": np.linspace(1, 2, 6),
            "mean2": np.linspace(0, 3, 6),
            "std2": np.linspace(2, 3, 6),
        }
        return model

    def test_round_trip_bit_exact(self, tmp_path):
        model = self._model()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.config == model.config
        assert not back.training
        for (na, pa, _), (nb, pb, _) in zip(model.params(), back.params()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)
        for k in model.norm:
            np.testing.assert_array_equal(back.norm[k], model.norm[k])
        x1, x2 = _inputs(10, n=3, seed=33)
        np.testing.assert_array_equal(model.forward(x1, x2), back.forward(x1, x2))

    def test_save_is_byte_deterministic(self, tmp_path):
        model = self._model()
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_corrupted_data_detected(self, tmp_path):
        model = self._model()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        blob = bytearray(open(path, "rb").read())
        blob[-5] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(HeadAlignError, match="checksum"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["b1.conv1.W", "fc4.b", "std2"])
    def test_save_refuses_non_finite_state(self, tmp_path, name):
        model = self._model()
        arrays = {n: p for n, p, _ in model.params()} | model.norm
        arrays[name].flat[-1] = np.nan
        path = tmp_path / "m.ckpt"
        with pytest.raises(InvalidArgumentError, match=f"refusing to save a checkpoint: {name} is not finite"):
            save_checkpoint(model, str(path))
        assert not path.exists()

    def test_wrong_magic_detected(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        open(path, "wb").write(b"NOTHDG0\n" + b"\x00" * 64)
        with pytest.raises(HeadAlignError, match="not a model checkpoint"):
            load_checkpoint(path)

    @staticmethod
    def _without(header: dict, key: str) -> dict:
        return {k: v for k, v in header.items() if k != key}

    @staticmethod
    def _shifted(header: dict, field: str, delta: int) -> dict:
        manifest = [dict(e) for e in header["manifest"]]
        manifest[-1][field] += delta
        return header | {"manifest": manifest}

    @pytest.mark.parametrize("case, message", [
        ("truncated_length", "malformed checkpoint header"),
        ("non_json_header", "malformed checkpoint header"),
        ("list_header", "checkpoint header is not a JSON object"),
        ("missing_manifest", "checkpoint header lacks manifest"),
        ("missing_checksum_and_norm", "checkpoint header lacks checksum, norm"),
        ("offset_past_data", "manifest range of fc4.b"),
        ("negative_offset", "manifest range of fc4.b"),
        ("short_block", "manifest range of fc4.b"),
    ])
    def test_malformed_file_raises_typed_error(self, tmp_path, case, message):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(self._model(), path)
        raw = open(path, "rb").read()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header, data = json.loads(raw[16 : 16 + hlen]), raw[16 + hlen :]
        headers = {
            "list_header": [header],
            "missing_manifest": self._without(header, "manifest"),
            "missing_checksum_and_norm": self._without(self._without(header, "checksum"), "norm"),
            "offset_past_data": self._shifted(header, "offset", 8),
            "negative_offset": self._shifted(header, "offset", -len(data) - 8),
            "short_block": self._shifted(header, "nbytes", -8),
        }
        if case == "truncated_length":
            blob = raw[:12]
        elif case == "non_json_header":
            blob = raw[:8] + struct.pack("<Q", 9) + b"not json!" + data
        else:
            hdr = json.dumps(headers[case], sort_keys=True).encode()
            blob = raw[:8] + struct.pack("<Q", len(hdr)) + hdr + data
        open(path, "wb").write(blob)
        with pytest.raises(HeadAlignError, match=message):
            load_checkpoint(path)

    def _rewrite_header(self, path: str, edit) -> None:
        """Save a checkpoint to ``path`` with ``edit(header)`` applied to
        its header; the data section and its checksum stay intact."""
        save_checkpoint(self._model(), path)
        raw = open(path, "rb").read()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + hlen])
        edit(header)
        hdr = json.dumps(header, sort_keys=True).encode()
        open(path, "wb").write(raw[:8] + struct.pack("<Q", len(hdr)) + hdr + raw[16 + hlen :])

    # each edit keeps the checksum intact; read without checks, they raise
    # a raw KeyError, TypeError, ValueError or AttributeError, or load
    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda h: h["config"].pop("k1"), "missing config field(s) ['k1']", id="config_without_k1"),
        pytest.param(lambda h: h["config"].update(k1="ab"),
                     "k1 must be a list of 2 entries, got 'ab'", id="k1_string"),
        pytest.param(lambda h: h["config"].update(leaky_alpha="x"),
                     "leaky_alpha must be a number, got 'x'", id="alpha_string"),
        pytest.param(lambda h: h["config"].update(k1=[0, 3]), "k1 must be positive, got (0, 3)", id="k1_zero"),
        pytest.param(lambda h: h["config"].update(t_align=10.0), "t_align must be an integer, got 10.0",
                     id="t_align_float"),
        pytest.param(lambda h: h["config"].update(input_width=7, k6=[1, 1]),
                     "unknown config field(s) ['input_width', 'k6']", id="config_unknown_fields"),
        pytest.param(lambda h: h.update(norm=list(h["norm"].values())),
                     "norm must have exactly the keys ['mean1', 'mean2', 'std1', 'std2']", id="norm_list"),
        pytest.param(lambda h: h.update(manifest=5), "manifest must be a list, got int", id="manifest_int"),
        pytest.param(lambda h: h["manifest"][0].pop("name"),
                     "manifest entry 0 must have exactly the keys ['name', 'nbytes', 'offset', 'shape']",
                     id="entry_without_name"),
        pytest.param(lambda h: h["norm"].update(mean1=h["norm"]["mean1"][:5]),
                     "norm field mean1 must be 6 numbers", id="short_mean1"),
    ])
    def test_malformed_contents_raise_typed_error(self, tmp_path, edit, message):
        path = str(tmp_path / "m.ckpt")
        self._rewrite_header(path, edit)
        with pytest.raises(HeadAlignError) as info:
            load_checkpoint(path)
        assert type(info.value) is HeadAlignError
        assert str(info.value).startswith(f"{path}: malformed checkpoint: {message}")

    def test_manifest_must_list_every_parameter(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        self._rewrite_header(path, lambda h: h["manifest"].pop())
        with pytest.raises(HeadAlignError, match=r"missing \['fc4.b'\], repeated \[\]"):
            load_checkpoint(path)

    def test_leaky_alpha_outside_unit_interval_refused(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        self._rewrite_header(path, lambda h: h["config"].update(leaky_alpha=2))
        with pytest.raises(InvalidArgumentError, match="leaky slope must be in \\[0, 1\\], got 2.0"):
            load_checkpoint(path)
