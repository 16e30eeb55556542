"""Seeded synthetic corpora of the paper's shape.

Run as a script, this writes one workload's corpus under a cache directory
before the measured process starts, so generation never counts in a
measured figure.  Imported, it exposes the synthesis functions, so output
checks can rebuild any clip or planted label from the seed alone.

Personality corpus (SSPNet-shaped): 640 ten-second 16 kHz clips, 11 judges
scoring five traits on 1-5, so the scores CSV has 11 x 640 x 5 = 35,200
rows.  Each trait has its own planted binary label and
its own tone; a positive clip carries that tone loud, a negative one quiet
(the "amplitude" signal).  Judge scores are noise-free, so majority voting
gives back the planted labels.  Forty more clips carry the same tones at one
level whatever the label ("none" signal): the chance-level control.

Emotion corpus (RECOLA-shaped): 64 ten-second clips whose loudness plants
binary arousal, six annotators drawing continuous traces at 25 Hz.  It is
stored as cached log-mels plus the majority-vote arousal labels in one AFTX1
container, because pretraining reads features, not audio.

Usage: python3 perfbench/corpora.py --workload NAME --seed N --root DIR
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys

import numpy as np

SAMPLE_RATE = 16_000
CLIP_SAMPLES = 10 * SAMPLE_RATE
TRAITS = ("EX", "AG", "CO", "NE", "OP")
TRAIT_TONES_HZ = (300.0, 700.0, 1300.0, 2300.0, 4000.0)
LOUD_RMS, QUIET_RMS, FLAT_RMS = 0.12, 0.03, 0.075
NOISE_STD = 0.01

PERSONALITY_CLIPS = 640
PERSONALITY_JUDGES = 11
CONTROL_CLIPS = 40

EMOTION_CLIPS = 64
EMOTION_ANNOTATORS = 6
TRACE_HZ = 25

# Independent random streams per purpose, so that each can be rebuilt alone.
STREAM_LABELS, STREAM_CLIP, STREAM_SCORES, STREAM_CONTROL, STREAM_EMOTION = range(5)


def clip_id(index: int) -> str:
    return f"clip{index:04d}"


def control_id(index: int) -> str:
    return f"ctrl{index:04d}"


def planted_labels(seed: int, stream: int, num_clips: int) -> np.ndarray:
    """[len(TRAITS), num_clips] int8 labels, exactly half positive per trait."""
    rng = np.random.default_rng([seed, stream])
    base = (np.arange(num_clips) < num_clips // 2).astype(np.int8)
    return np.stack([base[rng.permutation(num_clips)] for _ in TRAITS])


def synth_clip(seed: int, stream: int, index: int, loud: np.ndarray) -> np.ndarray:
    """One clip: a sum of the trait tones at the levels in ``loud`` (one
    rms per trait), each with a random phase and a 2 % pitch jitter, plus
    white noise.  Depends only on (seed, stream, index, loud)."""
    rng = np.random.default_rng([seed, stream, index])
    x = NOISE_STD * rng.standard_normal(CLIP_SAMPLES)
    for f0, rms in zip(TRAIT_TONES_HZ, loud):
        f = f0 * (1.0 + 0.02 * rng.standard_normal())
        x += math.sqrt(2.0) * rms * _tone(f, rng.uniform(0, 2 * math.pi))
    return np.clip(x, -1.0, 1.0)


def _tone(freq: float, phase: float, block: int = 400) -> np.ndarray:
    """sin(2 pi freq n / SAMPLE_RATE + phase) for every sample n of a clip,
    as an outer product of two short complex rotations: five times faster
    than np.sin over the whole clip, which dominated corpus generation."""
    w = 2.0 * math.pi * freq / SAMPLE_RATE
    coarse = np.exp(1j * (w * block * np.arange(CLIP_SAMPLES // block) + phase))
    return np.outer(coarse, np.exp(1j * w * np.arange(block))).imag.ravel()


def personality_clip(seed: int, index: int, labels: np.ndarray) -> np.ndarray:
    return synth_clip(seed, STREAM_CLIP, index,
                      np.where(labels[:, index] > 0, LOUD_RMS, QUIET_RMS))


def control_clip(seed: int, index: int) -> np.ndarray:
    return synth_clip(seed, STREAM_CONTROL, index, np.full(len(TRAITS), FLAT_RMS))


def emotion_clip(seed: int, index: int, arousal: int) -> np.ndarray:
    level = LOUD_RMS if arousal else QUIET_RMS
    return synth_clip(seed, STREAM_EMOTION, index, np.full(len(TRAITS), level))


def corpus_dir(root: str, workload: str, seed: int) -> str:
    kind = "emotion" if workload == "pretrain" else "personality"
    return os.path.join(root, f"{kind}-{seed}")


# ---------------------------------------------------------------------------
# writers (script mode only)
# ---------------------------------------------------------------------------

def write_personality(out: str, seed: int) -> None:
    from aftx.audio import Waveform, write_wav
    from aftx.container import entries_digest, save_container
    from aftx.corpus import FIVE_POINT, synthetic_judge_scores, write_scores_csv
    from model import init_encoder, CONFIG

    labels = planted_labels(seed, STREAM_LABELS, PERSONALITY_CLIPS)
    os.makedirs(os.path.join(out, "clips"))
    os.makedirs(os.path.join(out, "control"))
    for i in range(PERSONALITY_CLIPS):
        write_wav(os.path.join(out, "clips", clip_id(i) + ".wav"),
                  Waveform(samples=personality_clip(seed, i, labels)))
    for i in range(CONTROL_CLIPS):
        write_wav(os.path.join(out, "control", control_id(i) + ".wav"),
                  Waveform(samples=control_clip(seed, i)))
    rng = np.random.default_rng([seed, STREAM_SCORES])
    ids = [clip_id(i) for i in range(PERSONALITY_CLIPS)]
    scores = {trait: synthetic_judge_scores(labels[t], PERSONALITY_JUDGES, FIVE_POINT,
                                            0.0, rng, trait, ids)
              for t, trait in enumerate(TRAITS)}
    write_scores_csv(os.path.join(out, "scores.csv"), scores)
    entries = [(name, arr, False) for name, arr in sorted(init_encoder(seed).items())]
    save_container(os.path.join(out, "encoder.aftx"), entries,
                   sidecar={"config": CONFIG, "seed": seed,
                            "entries_digest": entries_digest(entries)})


def write_emotion(out: str, seed: int) -> None:
    from aftx.audio import Waveform, log_mel
    from aftx.container import save_container
    from aftx.corpus import CONTINUOUS, JudgeScores, binarize_majority, summarize_continuous

    arousal = planted_labels(seed, STREAM_LABELS, EMOTION_CLIPS)[0]
    rng = np.random.default_rng([seed, STREAM_SCORES])
    times = np.arange(EMOTION_CLIPS * 10 * TRACE_HZ) / TRACE_HZ
    clip_of_time = (times // 10).astype(int)
    summary = np.empty((EMOTION_ANNOTATORS, EMOTION_CLIPS))
    for a in range(EMOTION_ANNOTATORS):
        # each annotator: planted level, a personal bias, and a smoothed wobble
        wobble = np.convolve(rng.standard_normal(len(times)), np.ones(25) / 25, "same")
        trace = np.clip(np.where(arousal[clip_of_time] > 0, 0.4, -0.4)
                        + rng.uniform(-0.15, 0.15) + 0.3 * wobble, -1.0, 1.0)
        for c in range(EMOTION_CLIPS):
            summary[a, c] = summarize_continuous(times, trace, 10.0 * c, 10.0 * (c + 1))
    scores = JudgeScores(matrix=summary, scale=CONTINUOUS, trait="arousal",
                         clip_ids=[f"emo{c:04d}" for c in range(EMOTION_CLIPS)],
                         judge_ids=[f"a{a}" for a in range(EMOTION_ANNOTATORS)])
    labels = binarize_majority(scores)
    entries = [("labels/arousal", labels.astype(np.float64), False)]
    for c in range(EMOTION_CLIPS):
        spec = log_mel(Waveform(samples=emotion_clip(seed, c, int(arousal[c]))))
        entries.append((f"logmel/{scores.clip_ids[c]}", spec.values, False))
    os.makedirs(out)
    save_container(os.path.join(out, "emotion.aftx"), entries)


def ensure(root: str, workload: str, seed: int) -> str:
    """Write the corpus for (workload, seed) unless it is already complete.
    Corpora of other seeds are removed first, so the cache holds one
    corpus of each kind."""
    target = corpus_dir(root, workload, seed)
    if os.path.isdir(target):
        return target
    kind = os.path.basename(target).split("-")[0]
    os.makedirs(root, exist_ok=True)
    for name in os.listdir(root):
        if name.startswith(kind + "-") or name.startswith("." + kind):
            shutil.rmtree(os.path.join(root, name))
    tmp = os.path.join(root, f".{kind}-{seed}.partial")
    (write_emotion if kind == "emotion" else write_personality)(tmp, seed)
    os.rename(tmp, target)
    return target


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("pretrain", "transfer"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args(argv)
    print(ensure(args.root, args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
