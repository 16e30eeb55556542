"""The SER encoder, the embedding-stack heads and the masked-CNN baseline,
composed by the benchmark from ``aftx.tensor`` and ``aftx.layers``.

Shapes follow the probe figures in ROADMAP.md: an 80-bin log-mel of a
10-s clip (998 frames) enters a conv front-end of 80 -> 128 channels,
window 3, stride 2 (499 frames), followed by two post-norm transformer
layers of width 128 with 4 heads and a 256-wide feed-forward.  The
per-layer states are the conv output and each layer's output, mean-pooled
over frames: a [3, 128] embedding stack per clip.

Every call into ``aftx`` goes through ``api`` (see spans.py), so a traced
run can time it.
"""

from __future__ import annotations

import numpy as np

CONFIG = {"mel_bins": 80, "dim": 128, "heads": 4, "ffn": 256, "layers": 2,
          "window": 3, "stride": 2}
CNN_CONFIG = {"channels": 16, "window": 5, "stride": 4}
NUM_TRAITS = 5


def init_encoder(seed: int) -> dict[str, np.ndarray]:
    """Seeded initial weights, named as they are stored in AFTX1."""
    c = CONFIG
    rng = np.random.default_rng([seed, 99])
    d, f = c["dim"], c["ffn"]

    def glorot(*shape):
        fan = shape[0] + shape[-1] if len(shape) == 2 else shape[1] * shape[2] + shape[0]
        return rng.standard_normal(shape) * np.sqrt(2.0 / fan)

    p = {"front.conv.w": glorot(d, c["mel_bins"], c["window"]),
         "front.conv.b": np.zeros(d)}
    for i in range(c["layers"]):
        for proj in ("q", "k", "v", "o"):
            p[f"layer{i}.attn.w{proj}"] = glorot(d, d)
            p[f"layer{i}.attn.b{proj}"] = np.zeros(d)
        p[f"layer{i}.ffn.w1"] = glorot(d, f)
        p[f"layer{i}.ffn.b1"] = np.zeros(f)
        p[f"layer{i}.ffn.w2"] = glorot(f, d)
        p[f"layer{i}.ffn.b2"] = np.zeros(d)
        for ln in ("ln1", "ln2"):
            p[f"layer{i}.{ln}.g"] = np.ones(d)
            p[f"layer{i}.{ln}.b"] = np.zeros(d)
    return p


def init_linear(rng: np.random.Generator, d_in: int, d_out: int) -> dict[str, np.ndarray]:
    return {"w": rng.standard_normal((d_in, d_out)) * np.sqrt(1.0 / d_in),
            "b": np.zeros(d_out)}


def init_cnn(rng: np.random.Generator) -> dict[str, np.ndarray]:
    c = CNN_CONFIG
    fan = CONFIG["mel_bins"] * c["window"]
    p = {"conv.w": rng.standard_normal((c["channels"], CONFIG["mel_bins"], c["window"]))
         * np.sqrt(2.0 / fan),
         "conv.b": np.zeros(c["channels"])}
    p.update({f"out.{k}": v for k, v in
              init_linear(rng, c["channels"], 2 * NUM_TRAITS).items()})
    return p


def encoder_states(api, p, values: np.ndarray, pe) -> list:
    """Per-layer states [frames, dim] of one log-mel [mel_bins, frames].

    ``p`` maps names to Tensors; ``pe`` is the positional table for the
    strided frame count."""
    c = CONFIG
    h = api.conv1d(api.Tensor(values), p["front.conv.w"], p["front.conv.b"],
                   stride=c["stride"])
    h = api.add(api.transpose(api.relu(h), (1, 0)), pe)
    states = [h]
    for i in range(c["layers"]):
        a = f"layer{i}.attn."
        att = api.multi_head_attention(
            h, c["heads"], p[a + "wq"], p[a + "bq"], p[a + "wk"], p[a + "bk"],
            p[a + "wv"], p[a + "bv"], p[a + "wo"], p[a + "bo"])
        h = api.layer_norm_residual(h, att, p[f"layer{i}.ln1.g"], p[f"layer{i}.ln1.b"])
        f = f"layer{i}.ffn."
        ff = api.feed_forward(h, p[f + "w1"], p[f + "b1"], p[f + "w2"], p[f + "b2"])
        h = api.layer_norm_residual(h, ff, p[f"layer{i}.ln2.g"], p[f"layer{i}.ln2.b"])
        states.append(h)
    return states


def cnn_logits(api, p, values: np.ndarray):
    """[NUM_TRAITS, 2] logits of the masked-CNN baseline for one log-mel."""
    c = CNN_CONFIG
    h = api.relu(api.conv1d(api.Tensor(values), p["conv.w"], p["conv.b"], stride=c["stride"]))
    out = api.linear(api.tmean(h, 1), p["out.w"], p["out.b"])
    return api.reshape(out, (NUM_TRAITS, 2))
