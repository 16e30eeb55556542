"""Spectrogram masking and augmentation accounting."""

import tracemalloc

import numpy as np
import pytest

from aftx.audio import Spectrogram
from aftx.augment import (
    FREQ_THEN_TIME,
    FREQUENCY,
    MASK_KINDS,
    TIME,
    MaskedSpectrogram,
    augment_corpus,
    sample_mask_regions,
)
from aftx.errors import MaskTooLarge, ShapeError


def random_spec(rng, mel_bins=24, frames=90, source_id="clip"):
    return Spectrogram(values=rng.standard_normal((mel_bins, frames)), source_id=source_id)


def apply_mask(values, kind, seed):
    """The eager mask each lazy variant must equal: a copy of ``values`` whose
    bands for ``kind``, drawn by ``sample_mask_regions``, hold the mean of
    ``values``.  It masks time before frequency, the other order."""
    out = values.copy()
    if kind in (TIME, FREQ_THEN_TIME):
        start, end = sample_mask_regions(values.shape[1], "time", seed)
        out[:, start:end] = values.mean()
    if kind in (FREQUENCY, FREQ_THEN_TIME):
        start, end = sample_mask_regions(values.shape[0], "freq", seed)
        out[start:end, :] = values.mean()
    return out


class TestApplyMask:
    """The bands one masked variant sets, read through ``MaskedSpectrogram``."""

    def test_frequency_mask_is_one_band(self):
        spec = random_spec(np.random.default_rng(1))
        seed = 3  # chosen to draw a nonzero width
        start, end = sample_mask_regions(24, "freq", seed)
        assert end - start > 0
        out = MaskedSpectrogram(spec, FREQUENCY, seed, 0.0).values
        changed_rows = np.where((out != spec.values).any(axis=1))[0]
        assert len(changed_rows) <= 8
        assert changed_rows.tolist() == list(range(start, end))
        untouched = np.ones(24, dtype=bool)
        untouched[start:end] = False
        assert out[untouched].tobytes() == spec.values[untouched].tobytes()

    def test_masked_cells_take_global_mean(self):
        spec = random_spec(np.random.default_rng(2))
        fill = spec.values.mean()
        variant, tag = augment_corpus([spec], seed=3)[1]
        assert tag.kind == FREQUENCY
        start, end = sample_mask_regions(24, "freq", tag.seed)
        assert end > start
        np.testing.assert_array_equal(variant.values[start:end, :], fill)

    def test_composition_orders_agree(self):
        # the composite kind equals its time band, then its frequency band,
        # drawn from its seed and filled with the input's mean
        spec = random_spec(np.random.default_rng(4))
        fill = spec.values.mean()
        for seed in range(10):
            a = MaskedSpectrogram(spec, FREQ_THEN_TIME, seed, fill).values
            b = spec.values.copy()
            start, end = sample_mask_regions(90, "time", seed)
            b[:, start:end] = fill
            start, end = sample_mask_regions(24, "freq", seed)
            b[start:end, :] = fill
            assert a.tobytes() == b.tobytes()

    def test_input_never_modified(self):
        spec = random_spec(np.random.default_rng(5))
        before = spec.values.copy()
        _ = MaskedSpectrogram(spec, FREQ_THEN_TIME, 1, 0.0).values
        assert spec.values.tobytes() == before.tobytes()

    def test_shape_preserved_and_changes_inside_regions(self):
        for seed in range(25):
            rng = np.random.default_rng(100 + seed)
            spec = random_spec(rng)
            out = MaskedSpectrogram(spec, FREQ_THEN_TIME, seed, 0.0).values
            assert out.shape == spec.values.shape
            allowed = np.zeros_like(spec.values, dtype=bool)
            start, end = sample_mask_regions(24, "freq", seed)
            allowed[start:end, :] = True
            start, end = sample_mask_regions(90, "time", seed)
            allowed[:, start:end] = True
            changed = out != spec.values
            assert not (changed & ~allowed).any()

    def test_masked_fraction_bound(self):
        # union bound: 8/mel_bins + 40/frames
        for seed in range(25):
            rng = np.random.default_rng(200 + seed)
            spec = random_spec(rng)
            out = MaskedSpectrogram(spec, FREQ_THEN_TIME, seed, 0.0).values
            frac = float((out != spec.values).mean())
            assert frac <= 8 / 24 + 40 / 90 + 1e-12

    def test_mask_too_large(self):
        # a band may be 8 mel bins or 40 frames wide, so the axes must be wider
        rng = np.random.default_rng(6)
        assert len(augment_corpus([random_spec(rng, 9, 41)], seed=0)) == 4
        with pytest.raises(MaskTooLarge):
            augment_corpus([random_spec(rng, 8, 90)], seed=0)
        with pytest.raises(MaskTooLarge):
            augment_corpus([random_spec(rng, 24, 40)], seed=0)

    @pytest.mark.parametrize("num_rows, axis", [(3, "time"), (40, "time"), (8, "freq")])
    def test_band_wider_than_axis(self, num_rows, axis):
        # the rule augment_corpus applies; (3, "time") raised numpy's ValueError
        with pytest.raises(MaskTooLarge):
            sample_mask_regions(num_rows, axis, 1)

    @pytest.mark.parametrize("axis", ["frequency", "Time", ""])
    def test_unknown_axis(self, axis):
        with pytest.raises(ShapeError, match=repr(axis)):
            sample_mask_regions(90, axis, 1)


class TestAugmentCorpus:
    def make_clips(self, n):
        rng = np.random.default_rng(7)
        return [random_spec(rng, source_id=f"clip{idx:04d}") for idx in range(n)]

    def test_default_plan_quadruples_640_clips(self):
        clips = self.make_clips(640)
        out = augment_corpus(clips, seed=0)
        assert len(out) == 2560

    def test_count_formula(self):
        # n originals in order, then each clip's variants in the order of MASK_KINDS
        for n in range(4):
            clips = self.make_clips(n)
            out = augment_corpus(clips, seed=0)
            assert len(out) == 4 * n
            assert [spec for spec, _ in out[:n]] == clips
            assert [tag.kind for _, tag in out] == ["original"] * n + list(MASK_KINDS) * n

    def test_tags_carry_kind_and_seed(self):
        clips = self.make_clips(3)
        out = augment_corpus(clips, seed=11)
        augmented = [item for item in out if item[1].kind != "original"]
        assert len(augmented) == 9
        for spec, tag in augmented:
            assert (spec.kind, spec.seed) == (tag.kind, tag.seed)
            # replaying the recorded seed reproduces the variant
            source = clips[[c.source_id for c in clips].index(tag.source_id)]
            replay = apply_mask(source.values, tag.kind, tag.seed)
            assert replay.tobytes() == spec.values.tobytes()

    def test_deterministic(self):
        clips = self.make_clips(4)
        a = augment_corpus(clips, seed=9)
        b = augment_corpus(clips, seed=9)
        for (sa, ta), (sb, tb) in zip(a, b):
            assert sa.values.tobytes() == sb.values.tobytes()
            assert ta == tb

    @pytest.mark.parametrize("shape", [(50,), (80, 100, 2)], ids=["1d", "3d"])
    def test_values_not_2d_rejected(self, shape):
        clips = self.make_clips(1) + [Spectrogram(np.zeros(shape), source_id="odd")]
        with pytest.raises(ShapeError, match="'odd'"):
            augment_corpus(clips, seed=0)


class TestLazyVariants:
    """Variants are recipes masked on read, equal to the eager ``apply_mask``
    of this module."""

    def make_clips(self, n, mel_bins=24, frames=90):
        rng = np.random.default_rng(8)
        return [random_spec(rng, mel_bins, frames, source_id=f"clip{idx:04d}")
                for idx in range(n)]

    def test_equals_apply_mask_replayed_from_provenance(self):
        clips = self.make_clips(5)
        by_id = {c.source_id: c for c in clips}
        out = augment_corpus(clips, seed=3)
        kinds = set()
        for variant, tag in out[len(clips):]:
            source = by_id[tag.source_id]
            replay = apply_mask(source.values, tag.kind, tag.seed)
            values = variant.values
            assert values.tobytes() == replay.tobytes()
            assert values.flags.c_contiguous
            assert (variant.source.source_id, values.shape) == (source.source_id, source.values.shape)
            kinds.add(tag.kind)
        assert kinds == set(MASK_KINDS)

    def test_each_read_is_a_fresh_equal_array(self):
        clips = self.make_clips(2)
        sources = [c.values.copy() for c in clips]
        out = augment_corpus(clips, seed=5)
        for variant, _ in out[2:]:
            first = variant.values
            expected = first.copy()
            assert variant.values.tobytes() == expected.tobytes()
            first[:] = 123.0
            assert variant.values.tobytes() == expected.tobytes()
        for clip, before in zip(clips, sources):
            assert clip.values.tobytes() == before.tobytes()

    def test_list_values_mask_as_their_array(self):
        # augment_corpus takes any real 2-D array-like, as every boundary
        # does; a nested list raised AttributeError ('list' has no 'ndim')
        spec = self.make_clips(1)[0]
        as_list = Spectrogram(spec.values.tolist(), spec.source_id)
        for (a, _), (b, _) in zip(augment_corpus([spec], seed=4)[1:],
                                  augment_corpus([as_list], seed=4)[1:]):
            assert a.values.tobytes() == b.values.tobytes()

    def test_mask_too_large_raises_at_call_time(self):
        # a clip too narrow for a band raises from the call, not from a
        # later read of a variant, even after a clip that fits
        clips = self.make_clips(1) + self.make_clips(1, frames=40)
        with pytest.raises(MaskTooLarge):
            augment_corpus(clips, seed=0)
        with pytest.raises(MaskTooLarge):
            augment_corpus(self.make_clips(1, mel_bins=8), seed=0)

    def test_augmenting_allocates_less_than_one_clip(self):
        # 64 clips of paper shape make 192 variants; an eager copy of them
        # would allocate 117 MiB, a recipe each a few hundred bytes
        rng = np.random.default_rng(9)
        clips = [random_spec(rng, 80, 998, source_id=f"clip{idx:04d}") for idx in range(64)]
        one_clip = clips[0].values.nbytes
        tracemalloc.start()
        try:
            out = augment_corpus(clips, seed=6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == 4 * 64
        assert peak < one_clip, f"augment_corpus peaked at {peak} B, one clip is {one_clip} B"
