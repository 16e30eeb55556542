"""The two workloads of the paper's protocol.

Each workload is built from its corpus directory and seed, then:

- ``setup(api)`` loads what it needs and runs one warm-up item; the worker
  calls it on several fresh objects, reports the median time, and hands
  the list of their return values (a digest of the first training step,
  where there is one) to the object it keeps as ``setup_results``;
- ``round()`` does one whole round of the same operations and returns the
  number of clips it completed (the workload's clip unit, see README.md);
- ``check()`` runs after the timed part and returns (name, ok, detail)
  triples, each comparing outputs with a computation made here, without
  ``aftx``, or with a property the method must have.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import corpora
from model import CONFIG, NUM_TRAITS, cnn_logits, encoder_states, init_cnn, init_encoder, \
    init_linear
from aftx.audio import SAMPLE_RATE
from aftx.corpus import TRAITS, AnnotatedClip
from aftx.layers import positional_encoding
from aftx.optim import AdamW
from aftx.tensor import Parameter, Tensor

FOLDS = 5
FRAMES = 998                      # log-mel frames of a 10-s clip
PCM_TOLERANCE = 1.5 / 32768       # 16-bit rounding plus the 32767/32768 scale
LOG_MEL_TOLERANCE = 1e-6          # natural-log units; DFT vs FFT rounding is ~1e-12


def _parameters(arrays: dict[str, np.ndarray], trainable: bool) -> dict[str, Parameter]:
    return {name: Parameter(Tensor(arr.copy()), trainable=trainable, name=name)
            for name, arr in arrays.items()}


def _tensors(params: dict[str, Parameter]) -> dict[str, Tensor]:
    return {name: p.tensor for name, p in params.items()}


def _mean_recall(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.mean([np.mean(y_pred[y_true == c] == c) for c in (0, 1)]))


def reference_log_mel(x: np.ndarray, mel_bins: int = 80, frame_length: int = 400,
                      frame_shift: int = 160, fft_size: int = 512,
                      floor: float = 1e-10) -> np.ndarray:
    """Log-mel by a direct DFT (a [frame_length, bins] matrix product) of
    symmetric-Hann-windowed frames, projected on HTK-scale triangles
    (mel = 2595 log10(1 + f/700)) that peak at 1 and span 0 Hz to Nyquist."""
    n = np.arange(frame_length)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / (frame_length - 1))
    count = (len(x) - frame_length) // frame_shift + 1
    frames = x[n[None, :] + frame_shift * np.arange(count)[:, None]] * window
    k = np.arange(fft_size // 2 + 1)
    power = np.abs(frames @ np.exp(-2j * np.pi * np.outer(n, k) / fft_size)) ** 2
    top = 2595.0 * math.log10(1.0 + (SAMPLE_RATE / 2) / 700.0)
    edges = 700.0 * (10.0 ** (np.linspace(0.0, top, mel_bins + 2) / 2595.0) - 1.0)
    freqs = k * SAMPLE_RATE / fft_size
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    bank = np.maximum(0.0, np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)))
    return np.log(np.maximum(power @ bank.T, floor)).T


class Pretrain:
    """Train the SER encoder on cached log-mels of the emotion corpus with
    binarized arousal labels.  A round is one AdamW step on a batch of clips."""

    BATCH = 4
    LR = 1e-3

    def __init__(self, corpus: str, seed: int, work: str):
        self.path = os.path.join(corpus, "emotion.aftx")
        self.seed = seed
        self.losses: list[float] = []
        self.setup_results: list[str] = []

    def setup(self, api) -> str:
        self.api = api
        entries = {name: arr for name, arr, _ in api.load_container(self.path)}
        self.labels = entries.pop("labels/arousal").astype(np.int64)
        self.feats = [entries[name] for name in sorted(entries)]
        rng = np.random.default_rng([self.seed, 3])
        arrays = dict(init_encoder(self.seed))
        arrays.update({f"head.{k}": v for k, v in init_linear(rng, CONFIG["dim"], 2).items()})
        self.params = _parameters(arrays, trainable=True)
        self.t = _tensors(self.params)
        self.opt = AdamW(self.params, lr=self.LR)
        self.pe = positional_encoding((FRAMES - CONFIG["window"]) // CONFIG["stride"] + 1,
                                      CONFIG["dim"])
        self.order_rng = np.random.default_rng([self.seed, 4])
        self.queue: list[int] = []
        self.round()
        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(self.params[name].data.tobytes())
        return h.hexdigest()

    def round(self) -> int:
        api, t = self.api, self.t
        if len(self.queue) < self.BATCH:
            self.queue = list(self.order_rng.permutation(len(self.feats)))
        batch, self.queue = self.queue[:self.BATCH], self.queue[self.BATCH:]
        with api.stage("train_step"):
            logits = []
            for i in batch:
                with api.stage("encoder_forward"):
                    states = encoder_states(api, t, self.feats[i], self.pe)
                logits.append(api.linear(api.tmean(states[-1], 0), t["head.w"], t["head.b"]))
            loss = api.softmax_cross_entropy(api.stack(logits), self.labels[batch])
            api.backward(loss)
            api.step(self.opt)
            self.opt.zero_grad()
        self.losses.append(loss.item())
        return len(batch)

    def check(self):
        losses = np.array(self.losses)
        timed = losses[1:]                # the first loss is the warm-up step's
        q = len(timed) // 4
        first, last = (timed[:q].mean(), timed[-q:].mean()) if q >= 2 else (np.nan, np.nan)
        return [
            ("the loss is finite at every step", bool(np.isfinite(losses).all()),
             f"{len(losses)} steps"),
            ("the loss falls over the run on the planted arousal signal",
             bool(last < 0.8 * first),
             f"mean of first quarter {first:.4f}, of last quarter {last:.4f}"),
            ("seeded first steps are bit-identical",
             len(self.setup_results) > 1 and len(set(self.setup_results)) == 1,
             f"{len(self.setup_results)} setups"),
        ]


class Transfer:
    """Frozen encoder from an AFTX1 checkpoint over blocks of personality
    clips.  A round reads the scores CSV and votes the labels, turns a block
    of WAVs into log-mels and embedding stacks, saves and reloads the stacks
    as AFTX1, trains 5-fold x 5-trait linear heads scored by UAR with the
    trait-pair table, and trains the masked-CNN baseline on a 4x augmented
    set.  A round is one block."""

    BLOCK = 64
    HEAD_STEPS = 30
    HEAD_LR = 0.01
    CNN_BATCH = 8
    CNN_LR = 3e-3
    MIN_PLANTED_UAR = 0.8
    CONTROL_MARGIN = 0.2

    def __init__(self, corpus: str, seed: int, work: str):
        self.dir, self.seed = corpus, seed
        self.stack_path = os.path.join(work, "stacks.aftx")
        self.digests: list[bool] = []
        self.scored: list[tuple] = []     # (y_true, y_pred, uar) of every score
        self.planted_uar: list[float] = []
        self.frames: list[int] = []
        self.last_aug = None
        self.last_plans = None
        self.r = 0

    def setup(self, api) -> None:
        self.api = api
        path = os.path.join(self.dir, "encoder.aftx")
        entries = api.load_container(path)
        with open(path + ".json") as fh:
            sidecar = json.load(fh)
        self.digests.append(api.entries_digest(entries) == sidecar["entries_digest"])
        expect = {k: v.shape for k, v in init_encoder(0).items()}
        got = {name: arr.shape for name, arr, _ in entries}
        if got != expect or sidecar["config"] != CONFIG:
            raise ValueError(f"{path}: checkpoint does not match the encoder config")
        self.enc = _tensors(_parameters({n: a for n, a, _ in entries}, trainable=False))
        self.read_labels()
        self.pe = positional_encoding((FRAMES - CONFIG["window"]) // CONFIG["stride"] + 1,
                                      CONFIG["dim"])
        perm = np.random.default_rng([self.seed, 5]).permutation(len(self.ids))
        self.blocks = perm.reshape(-1, self.BLOCK)
        self.extract([os.path.join(self.dir, "clips", self.ids[0] + ".wav")])

    def read_labels(self) -> None:
        """Clip ids, majority-vote labels [traits, clips] and mean judge
        scores [traits, clips] from the scores CSV."""
        api = self.api
        with api.stage("labels"):
            scores = api.read_scores_csv(os.path.join(self.dir, "scores.csv"))
            self.ids = scores[TRAITS[0]].clip_ids
            self.labels = np.stack([api.binarize_majority(scores[t]) for t in TRAITS])
            self.mean_scores = np.stack([scores[t].matrix.mean(axis=0) for t in TRAITS])

    def extract(self, paths):
        """Log-mels and [layers + 1, dim] embedding stacks of the given WAVs."""
        api = self.api
        specs, stacks = [], []
        with api.stage("extract"):
            for path in paths:
                spec = api.log_mel(api.load_wav(path))
                with api.stage("encoder_forward"):
                    states = encoder_states(api, self.enc, spec.values, self.pe)
                    stacks.append(np.stack([api.tmean(s, 0).data for s in states]))
                specs.append(spec)
                self.frames.append(spec.frames)
        return specs, np.stack(stacks)

    def heads(self, stacks: np.ndarray, labels: np.ndarray, seed: int):
        """Out-of-fold predictions [traits, clips] of one linear head per
        (trait, fold) on the flattened, fold-standardized stacks."""
        api = self.api
        x = stacks.reshape(len(stacks), -1)
        preds = np.zeros_like(labels)
        plans = []
        with api.stage("heads"):
            clips = [AnnotatedClip(str(i), "", binary_labels={t: int(labels[k, i])
                                                             for k, t in enumerate(TRAITS)})
                     for i in range(len(x))]
            rng = np.random.default_rng([seed, 6])
            for k, trait in enumerate(TRAITS):
                plan = api.make_folds(clips, trait, seed=seed)
                plans.append(plan)
                fold = np.array([plan.assignments[str(i)] for i in range(len(x))])
                for f in range(FOLDS):
                    train, test = fold != f, fold == f
                    mu, sd = x[train].mean(axis=0), x[train].std(axis=0) + 1e-8
                    xtr, xte = Tensor((x[train] - mu) / sd), Tensor((x[test] - mu) / sd)
                    params = _parameters(init_linear(rng, x.shape[1], 2), trainable=True)
                    opt = AdamW(params, lr=self.HEAD_LR)
                    for _ in range(self.HEAD_STEPS):
                        loss = api.softmax_cross_entropy(
                            api.linear(xtr, params["w"].tensor, params["b"].tensor),
                            labels[k, train])
                        api.backward(loss)
                        api.step(opt)
                        opt.zero_grad()
                    out = api.linear(xte, params["w"].tensor, params["b"].tensor)
                    preds[k, test] = out.data.argmax(axis=1)
        return preds, plans

    def score(self, labels: np.ndarray, preds: np.ndarray, mean_scores: np.ndarray):
        """UAR per trait, and the trait-pair table of the predicted labels."""
        api = self.api
        with api.stage("scoring"):
            uars = [api.uar(api.from_predictions(labels[k], preds[k]))
                    for k in range(len(TRAITS))]
            api.trait_pair_table({t: mean_scores[k] for k, t in enumerate(TRAITS)},
                                 {t: preds[k] for k, t in enumerate(TRAITS)})
        return uars

    def cnn_baseline(self, specs, labels: np.ndarray, plan, fold: int, seed: int) -> None:
        api = self.api
        with api.stage("cnn_baseline"):
            aug = api.augment_corpus(specs, seed=seed)
            self.last_aug = (specs, aug)
            index = {s.source_id: i for i, s in enumerate(specs)}
            train = [(s, index[p.source_id]) for s, p in aug
                     if plan.assignments[str(index[p.source_id])] != fold]
            rng = np.random.default_rng([seed, 8])
            params = _parameters(init_cnn(rng), trainable=True)
            t = _tensors(params)
            opt = AdamW(params, lr=self.CNN_LR)
            order = rng.permutation(len(train))
            for b in range(0, len(order), self.CNN_BATCH):
                batch = [train[j] for j in order[b:b + self.CNN_BATCH]]
                logits = api.stack([cnn_logits(api, t, s.values) for s, _ in batch])
                y = np.concatenate([labels[:, i] for _, i in batch])
                loss = api.softmax_cross_entropy(
                    api.reshape(logits, (len(batch) * NUM_TRAITS, 2)), y)
                api.backward(loss)
                api.step(opt)
                opt.zero_grad()
            test = [i for i in range(len(specs)) if plan.assignments[str(i)] == fold]
            pred = np.stack([cnn_logits(api, t, specs[i].values).data.argmax(axis=1)
                             for i in test], axis=1)
            truth = labels[:, test]
            for k in range(NUM_TRAITS):
                if len(set(truth[k])) == 2:
                    u = api.uar(api.from_predictions(truth[k], pred[k]))
                    self.scored.append((truth[k], pred[k], u))

    def round(self) -> int:
        api = self.api
        self.last_aug = None
        self.read_labels()
        block = self.blocks[self.r % len(self.blocks)]
        seed = self.seed * 1000 + self.r
        specs, stacks = self.extract(
            [os.path.join(self.dir, "clips", self.ids[i] + ".wav") for i in block])
        with api.stage("stacks_io"):
            entries = [(f"stack/{self.ids[i]}", stacks[j], False) for j, i in enumerate(block)]
            before = api.entries_digest(entries)
            api.save_container(self.stack_path, entries)
            self.digests.append(api.entries_digest(api.load_container(self.stack_path)) == before)
        labels = self.labels[:, block]
        preds, plans = self.heads(stacks, labels, seed)
        self.last_plans = plans
        uars = self.score(labels, preds, self.mean_scores[:, block])
        self.scored.extend(zip(labels, preds, uars))
        self.planted_uar.append(float(np.mean(uars)))
        self.cnn_baseline(specs, labels, plans[0], self.r % FOLDS, seed)
        self.r += 1
        return len(block)

    def check(self):
        from aftx.audio import load_wav, log_mel
        planted = corpora.planted_labels(self.seed, corpora.STREAM_LABELS,
                                         corpora.PERSONALITY_CLIPS)
        ok_ids = self.ids == [corpora.clip_id(i) for i in range(corpora.PERSONALITY_CLIPS)]
        out = [("labels from zero-noise scores equal the planted labels",
                ok_ids and np.array_equal(self.labels, planted), ""),
               ("every log-mel has 998 frames", set(self.frames) == {FRAMES},
                f"{len(self.frames)} log-mels")]
        sizes = [sorted(np.bincount(list(p.assignments.values()), minlength=FOLDS))
                 for p in self.last_plans]
        out.append(("fold sizes differ by at most one clip",
                    all(s[-1] - s[0] <= 1 for s in sizes),
                    str([[int(n) for n in s] for s in sizes])))
        rng = np.random.default_rng([self.seed, 7])
        for i in sorted(rng.choice(len(self.ids), 3, replace=False)):
            wav = load_wav(os.path.join(self.dir, "clips", self.ids[i] + ".wav"))
            x = corpora.personality_clip(self.seed, int(i), planted)
            err = float(np.max(np.abs(wav.samples - x)))
            out.append((f"decoded {self.ids[i]} matches the synthesis within 16-bit "
                        "quantization", err <= PCM_TOLERANCE, f"max err {err:.3g}"))
            diff = float(np.max(np.abs(log_mel(wav).values - reference_log_mel(wav.samples))))
            out.append((f"log_mel of {self.ids[i]} matches a direct DFT and mel "
                        f"projection within {LOG_MEL_TOLERANCE}", diff <= LOG_MEL_TOLERANCE,
                        f"max diff {diff:.3g}"))
        out.append(("entries_digest holds across every AFTX1 save/load round trip",
                    all(self.digests), f"{len(self.digests)} round trips"))
        err = max(abs(u - _mean_recall(y, p)) for y, p, u in self.scored)
        out.append(("metrics.uar equals the recall computed from the raw predictions",
                    err <= 1e-12, f"max diff {err:.3g} over {len(self.scored)} scores"))
        planted = float(np.mean(self.planted_uar))
        out.append(("the planted amplitude signal gives UAR well above chance",
                    planted >= self.MIN_PLANTED_UAR, f"mean UAR {planted:.3f}"))
        specs, aug = self.last_aug
        n_var = len(aug) - len(specs)
        out.append(("the augmented set is exactly 4x the originals",
                    len(aug) == 4 * len(specs), f"{len(aug)} from {len(specs)}"))
        by_id = {s.source_id: s.values for s in specs}
        fill_ok, masked = True, 0
        for s, prov in aug[len(specs):]:
            orig = by_id[prov.source_id]
            changed = s.values != orig
            masked += int(changed.sum())
            fill_ok &= bool(np.all(s.values[changed] == orig.mean()))
        out.append(("each masked cell equals the mean of its clip", fill_ok and masked > 0,
                    f"{masked} masked cells in {n_var} variants"))
        control = os.path.join(self.dir, "control")
        paths = [os.path.join(control, corpora.control_id(i) + ".wav")
                 for i in range(corpora.CONTROL_CLIPS)]
        _, stacks = self.extract(paths)
        labels = corpora.planted_labels(self.seed, corpora.STREAM_CONTROL, len(paths))
        preds, _ = self.heads(stacks, labels, self.seed)
        chance = float(np.mean([_mean_recall(labels[k], preds[k])
                                for k in range(len(TRAITS))]))
        out.append(('label_signal="none" control stays near 0.5',
                    abs(chance - 0.5) <= self.CONTROL_MARGIN, f"mean UAR {chance:.3f}"))
        return out


WORKLOADS = {"pretrain": Pretrain, "transfer": Transfer}
