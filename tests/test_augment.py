"""Spectrogram masking and augmentation accounting."""

import tracemalloc

import numpy as np
import pytest

from aftx.audio import Spectrogram
from aftx.augment import (
    DEFAULT_PLAN,
    FREQ_THEN_TIME,
    FREQUENCY,
    MASK_KINDS,
    TIME,
    MaskSpec,
    apply_mask,
    augment_corpus,
    sample_mask_regions,
)
from aftx.errors import MaskTooLarge, UnknownKind


def random_spec(rng, mel_bins=24, frames=90, source_id="clip"):
    return Spectrogram(values=rng.standard_normal((mel_bins, frames)),
                       mel_bins=mel_bins, source_id=source_id)


class TestApplyMask:
    def test_zero_widths_are_identity(self):
        spec = random_spec(np.random.default_rng(0))
        out = apply_mask(spec, MaskSpec(FREQ_THEN_TIME, max_freq_width=0,
                                        max_time_width=0, seed=5))
        assert out.values.tobytes() == spec.values.tobytes()

    def test_frequency_mask_is_one_band(self):
        spec = random_spec(np.random.default_rng(1))
        seed = 3  # chosen to draw a nonzero width
        regions = sample_mask_regions(24, "freq", 8, 1, seed)
        (start, end), = regions
        assert end - start > 0
        out = apply_mask(spec, MaskSpec(FREQUENCY, max_freq_width=8, seed=seed))
        changed_rows = np.where((out.values != spec.values).any(axis=1))[0]
        assert len(changed_rows) <= 8
        assert changed_rows.tolist() == list(range(start, end))
        untouched = np.ones(24, dtype=bool)
        untouched[start:end] = False
        assert out.values[untouched].tobytes() == spec.values[untouched].tobytes()

    def test_masked_cells_take_global_mean(self):
        spec = random_spec(np.random.default_rng(2))
        out = apply_mask(spec, MaskSpec(FREQUENCY, max_freq_width=8, seed=3))
        fill = spec.values.mean()
        (start, end), = sample_mask_regions(24, "freq", 8, 1, 3)
        np.testing.assert_array_equal(out.values[start:end, :], fill)

    def test_composition_orders_agree(self):
        # the composite kind equals time bands, then frequency bands, drawn
        # from its seed and filled with the input's mean
        spec = random_spec(np.random.default_rng(4))
        fill = spec.values.mean()
        for seed in range(10):
            a = apply_mask(spec, MaskSpec(FREQ_THEN_TIME, 8, 20, seed=seed))
            b = spec.values.copy()
            for start, end in sample_mask_regions(90, "time", 20, 1, seed):
                b[:, start:end] = fill
            for start, end in sample_mask_regions(24, "freq", 8, 1, seed):
                b[start:end, :] = fill
            assert a.values.tobytes() == b.tobytes()

    def test_input_never_modified(self):
        spec = random_spec(np.random.default_rng(5))
        before = spec.values.copy()
        apply_mask(spec, MaskSpec(FREQ_THEN_TIME, 8, 30, seed=1))
        assert spec.values.tobytes() == before.tobytes()

    def test_shape_preserved_and_changes_inside_regions(self):
        for seed in range(25):
            rng = np.random.default_rng(100 + seed)
            spec = random_spec(rng)
            m = MaskSpec(FREQ_THEN_TIME, 6, 15, num_masks_per_axis=2, seed=seed)
            out = apply_mask(spec, m)
            assert out.values.shape == spec.values.shape
            allowed = np.zeros_like(spec.values, dtype=bool)
            for start, end in sample_mask_regions(24, "freq", 6, 2, seed):
                allowed[start:end, :] = True
            for start, end in sample_mask_regions(90, "time", 15, 2, seed):
                allowed[:, start:end] = True
            changed = out.values != spec.values
            assert not (changed & ~allowed).any()

    def test_masked_fraction_bound(self):
        # union bound: F*n/mel_bins + T*n/frames
        for seed in range(25):
            rng = np.random.default_rng(200 + seed)
            spec = random_spec(rng)
            m = MaskSpec(FREQ_THEN_TIME, 6, 15, num_masks_per_axis=2, seed=seed)
            out = apply_mask(spec, m)
            frac = float((out.values != spec.values).mean())
            assert frac <= 2 * 6 / 24 + 2 * 15 / 90 + 1e-12

    def test_mask_too_large(self):
        spec = random_spec(np.random.default_rng(6))
        with pytest.raises(MaskTooLarge):
            apply_mask(spec, MaskSpec(FREQUENCY, max_freq_width=24, seed=0))
        with pytest.raises(MaskTooLarge):
            apply_mask(spec, MaskSpec(TIME, max_time_width=90, seed=0))


class TestAugmentCorpus:
    def make_clips(self, n):
        rng = np.random.default_rng(7)
        return [random_spec(rng, source_id=f"clip{idx:04d}") for idx in range(n)]

    def test_unknown_mask_kind(self):
        with pytest.raises(UnknownKind):
            MaskSpec("bogus")

    def test_unknown_kind_in_plan(self):
        with pytest.raises(UnknownKind):
            augment_corpus(self.make_clips(2), plan=(FREQUENCY, "bogus"), seed=0)

    def test_default_plan_quadruples_640_clips(self):
        clips = self.make_clips(640)
        out = augment_corpus(clips, plan=DEFAULT_PLAN, seed=0)
        assert len(out) == 2560

    def test_empty_plan_returns_originals(self):
        clips = self.make_clips(5)
        out = augment_corpus(clips, plan=(), seed=0)
        assert len(out) == 5
        for (spec, tag), original in zip(out, clips):
            assert tag.kind == "original"
            assert spec.values.tobytes() == original.values.tobytes()

    def test_count_formula(self):
        clips = self.make_clips(9)
        for k in range(len(MASK_KINDS) + 1):
            out = augment_corpus(clips, plan=MASK_KINDS[:k], seed=0)
            assert len(out) == 9 * (1 + k)

    def test_tags_carry_kind_and_seed(self):
        clips = self.make_clips(3)
        out = augment_corpus(clips, plan=(FREQUENCY,), seed=11)
        augmented = [item for item in out if item[1].kind != "original"]
        assert len(augmented) == 3
        for spec, tag in augmented:
            assert tag.kind == FREQUENCY
            assert tag.seed is not None
            # replaying the recorded seed reproduces the variant
            replay = apply_mask(clips[[c.source_id for c in clips].index(tag.source_id)],
                                MaskSpec(FREQUENCY, 8, 40, seed=tag.seed))
            assert replay.values.tobytes() == spec.values.tobytes()

    def test_deterministic(self):
        clips = self.make_clips(4)
        a = augment_corpus(clips, seed=9)
        b = augment_corpus(clips, seed=9)
        for (sa, ta), (sb, tb) in zip(a, b):
            assert sa.values.tobytes() == sb.values.tobytes()
            assert ta == tb


class TestLazyVariants:
    """Variants are recipes masked on read, equal to the eager ``apply_mask``."""

    def make_clips(self, n, mel_bins=24, frames=90):
        rng = np.random.default_rng(8)
        return [random_spec(rng, mel_bins, frames, source_id=f"clip{idx:04d}")
                for idx in range(n)]

    @pytest.mark.parametrize("num_masks", [1, 2])
    def test_equals_apply_mask_replayed_from_provenance(self, num_masks):
        clips = self.make_clips(5)
        by_id = {c.source_id: c for c in clips}
        out = augment_corpus(clips, plan=MASK_KINDS, max_freq_width=6, max_time_width=15,
                             num_masks_per_axis=num_masks, seed=3)
        kinds = set()
        for variant, tag in out[len(clips):]:
            source = by_id[tag.source_id]
            replay = apply_mask(source, MaskSpec(tag.kind, 6, 15, num_masks, tag.seed))
            values = variant.values
            assert values.tobytes() == replay.values.tobytes()
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

    def test_mask_too_large_raises_at_call_time(self):
        clips = self.make_clips(2, frames=90)
        with pytest.raises(MaskTooLarge):
            augment_corpus(clips, max_time_width=90, seed=0)
        with pytest.raises(MaskTooLarge):
            augment_corpus(clips, max_freq_width=24, seed=0)

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
