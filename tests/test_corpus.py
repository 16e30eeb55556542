"""Labeling, folds, synthetic judge scores and the scores CSV."""

import numpy as np
import pytest

from aftx.corpus import (
    CONTINUOUS,
    FIVE_POINT,
    AnnotatedClip,
    JudgeScores,
    binarize_majority,
    make_folds,
    read_scores_csv,
    summarize_continuous,
    synthetic_judge_scores,
    write_scores_csv,
)
from aftx.errors import (
    DegenerateLabels,
    FormatError,
    InputTooShort,
    LabelError,
    MissingAnnotation,
    NonFinite,
    OutOfRange,
    SchemaError,
    ShapeError,
    UnknownKind,
)


def scores_from_matrix(matrix, trait="EX", scale=FIVE_POINT):
    m = np.asarray(matrix, dtype=np.float64)
    return JudgeScores(matrix=m, scale=scale, trait=trait,
                       clip_ids=[f"c{i:03d}" for i in range(m.shape[1])],
                       judge_ids=[f"j{i:02d}" for i in range(m.shape[0])])


def brute_force_binarize(matrix, majority):
    """Independent oracle: explicit loops over judges and clips."""
    num_judges, num_clips = matrix.shape
    labels = []
    for c in range(num_clips):
        votes = 0
        for j in range(num_judges):
            if matrix[j, c] > sum(matrix[j, :]) / num_clips:
                votes += 1
        labels.append(1 if votes >= majority else 0)
    return np.array(labels, dtype=np.int8)


class TestBinarizeMajority:
    def test_all_equal_scores_all_zero(self):
        sc = scores_from_matrix(np.full((11, 20), 3.0))
        assert binarize_majority(sc).sum() == 0

    def test_hand_case_two_clips(self):
        matrix = np.column_stack([np.full(11, 5.0), np.full(11, 1.0)])
        labels = binarize_majority(scores_from_matrix(matrix))
        np.testing.assert_array_equal(labels, [1, 0])

    def test_matches_brute_force_on_random_matrices(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            matrix = rng.integers(1, 6, size=(11, 50)).astype(np.float64)
            got = binarize_majority(scores_from_matrix(matrix))
            expected = brute_force_binarize(matrix, 6)
            np.testing.assert_array_equal(got, expected, err_msg=f"seed {seed}")

    def test_row_shift_invariance(self):
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            matrix = rng.uniform(1, 5, size=(11, 30))
            base = binarize_majority(scores_from_matrix(matrix))
            shifted = matrix.copy()
            judge = int(rng.integers(0, 11))
            shifted[judge] += float(rng.uniform(-2, 2))
            np.testing.assert_array_equal(
                base, binarize_majority(scores_from_matrix(shifted)))

    def test_default_majorities(self):
        """The strict majority: a clip that 6 of 11 (4 of 6) judges score
        above their mean is positive, one that 5 of 11 (3 of 6) do is not."""
        for judges, majority in ((11, 6), (6, 4)):
            matrix = np.zeros((judges, 3))
            matrix[:, :2] = -1.0
            matrix[:majority, 0] = 1.0
            matrix[:majority - 1, 1] = 1.0
            labels = binarize_majority(scores_from_matrix(matrix))
            np.testing.assert_array_equal(labels, [1, 0, 0])

    def test_no_judges_rejected(self):
        with pytest.raises(SchemaError):
            binarize_majority(scores_from_matrix(np.ones((0, 5))))

    def test_no_clips_rejected(self):
        # each judge's mean over no clips warned "Mean of empty slice"
        with pytest.raises(SchemaError):
            binarize_majority(scores_from_matrix(np.ones((11, 0))))


class TestSummarizeContinuous:
    def test_constant_trace(self):
        t = np.linspace(0, 10, 101)
        assert summarize_continuous(t, np.full(101, 0.3), 0.0, 10.0) == pytest.approx(0.3)

    def test_antisymmetric_halves(self):
        t = np.arange(100) * 0.1
        v = np.where(t < 5.0, 1.0, -1.0)
        assert summarize_continuous(t, v, 0.0, 10.0) == pytest.approx(0.0)

    def test_ramp(self):
        t = np.arange(200) * 0.05
        v = t / 10.0
        got = summarize_continuous(t, v, 0.0, 10.0)
        assert abs(got - 0.5) <= 0.05 / 10.0 + 1e-9

    def test_window_restriction(self):
        t = np.arange(300) * 0.1
        v = np.where((t >= 10.0) & (t < 20.0), 1.0, -1.0)
        assert summarize_continuous(t, v, 10.0, 20.0) == pytest.approx(1.0)

    def test_missing_annotation(self):
        with pytest.raises(MissingAnnotation):
            summarize_continuous(np.array([1.0, 2.0]), np.array([0.1, 0.2]), 5.0, 6.0)

    @pytest.mark.parametrize("times, values", [
        (np.arange(4.0), np.zeros(3)),
        (np.arange(4.0).reshape(2, 2), np.zeros((2, 2))),
        (np.arange(4.0), np.zeros((4, 1))),
    ], ids=["lengths", "both-2d", "values-2d"])
    def test_times_and_values_not_matching_vectors_rejected(self, times, values):
        with pytest.raises(ShapeError):
            summarize_continuous(times, values, 0.0, 10.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_in_window_rejected(self, bad):
        t = np.arange(10.0)
        v = np.zeros(10)
        v[3] = bad
        with pytest.raises(NonFinite):
            summarize_continuous(t, v, 2.0, 5.0)
        assert summarize_continuous(t, v, 5.0, 9.0) == 0.0   # outside the window

    @pytest.mark.parametrize("start, end", [(np.nan, 3.0), (0.0, np.nan), (-np.inf, 3.0)],
                             ids=["nan-start", "nan-end", "-inf-start"])
    def test_non_finite_window_bound_rejected(self, start, end):
        # a NaN bound holds no sample, which is not a missing annotation
        with pytest.raises(NonFinite):
            summarize_continuous(np.arange(3.0), np.zeros(3), start, end)

    @pytest.mark.parametrize("start, end", [(2.5, 0.5), (1.0, 1.0)], ids=["reversed", "empty"])
    def test_window_ending_at_or_before_its_start_rejected(self, start, end):
        # a malformed window, not a missing annotation
        with pytest.raises(OutOfRange, match=rf"\[{start}, {end}\)"):
            summarize_continuous(np.arange(3.0), np.zeros(3), start, end)


def make_clips(labels, trait="EX", speakers=None):
    return [AnnotatedClip(clip_id=f"c{i:04d}",
                          speaker_id=speakers[i] if speakers else f"s{i:04d}",
                          binary_labels={trait: int(lab)})
            for i, lab in enumerate(labels)]


def fold_sizes(plan):
    return np.bincount(list(plan.assignments.values()), minlength=5)


def fold_clips(plan, fold):
    return [cid for cid, f in plan.assignments.items() if f == fold]


class TestMakeFolds:
    def test_640_clips_make_folds_of_128(self):
        rng = np.random.default_rng(0)
        clips = make_clips(rng.integers(0, 2, 640))
        plan = make_folds(clips, "EX", seed=1)
        assert fold_sizes(plan).tolist() == [128] * 5

    def test_ten_clips_two_per_fold(self):
        clips = make_clips([0, 1] * 5)
        plan = make_folds(clips, "EX", seed=0)
        assert fold_sizes(plan).tolist() == [2] * 5
        assert set(plan.assignments) == {c.clip_id for c in clips}

    def test_stratification_within_ten_points(self):
        rng = np.random.default_rng(2)
        labels = (rng.random(200) < 0.6).astype(int)
        clips = make_clips(labels)
        plan = make_folds(clips, "EX", seed=3)
        global_frac = labels.mean()
        by_id = {c.clip_id: c.binary_labels["EX"] for c in clips}
        for k in range(5):
            fold_ids = fold_clips(plan, k)
            frac = np.mean([by_id[cid] for cid in fold_ids])
            assert abs(frac - global_frac) <= 0.1

    def test_partition_for_many_seeds(self):
        rng = np.random.default_rng(4)
        clips = make_clips(rng.integers(0, 2, 37))
        all_ids = {c.clip_id for c in clips}
        for seed in range(10):
            plan = make_folds(clips, "EX", seed=seed)
            folds = [set(fold_clips(plan, k)) for k in range(5)]
            assert set().union(*folds) == all_ids
            assert sum(len(f) for f in folds) == len(all_ids)
            assert max(len(f) for f in folds) - min(len(f) for f in folds) <= 1

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        clips = make_clips(rng.integers(0, 2, 50))
        assert make_folds(clips, "EX", seed=7).assignments == \
            make_folds(clips, "EX", seed=7).assignments

    def test_speaker_disjoint(self):
        rng = np.random.default_rng(6)
        speakers = [f"spk{i % 12}" for i in range(60)]
        clips = make_clips(rng.integers(0, 2, 60), speakers=speakers)
        plan = make_folds(clips, "EX", seed=8, speaker_disjoint=True)
        fold_of_speaker = {}
        for clip in clips:
            fold = plan.assignments[clip.clip_id]
            fold_of_speaker.setdefault(clip.speaker_id, fold)
            assert fold_of_speaker[clip.speaker_id] == fold

    def test_degenerate_labels(self):
        clips = make_clips([1] * 10)
        with pytest.raises(DegenerateLabels):
            make_folds(clips, "EX", seed=0)

    def test_fewer_clips_than_folds(self):
        with pytest.raises(InputTooShort):
            make_folds(make_clips([0, 1, 0, 1]), "EX", seed=0)

    def test_fewer_speakers_than_folds(self):
        # ten clips of one speaker all went to fold 0, leaving folds 1-4 empty
        clips = make_clips([0, 1] * 5, speakers=["spk0"] * 10)
        with pytest.raises(InputTooShort):
            make_folds(clips, "EX", seed=0, speaker_disjoint=True)

    def test_missing_trait_label(self):
        with pytest.raises(LabelError):
            make_folds(make_clips([0, 1] * 5), "AG", seed=0)

    @pytest.mark.parametrize("bad", [2, 0.6, -1, np.nan], ids=["2", "0.6", "-1", "nan"])
    def test_label_other_than_0_or_1_rejected(self, bad):
        # labels {0, 2} gave only the 0-labeled clips a fold, and 0.6 was
        # truncated to 0
        clips = make_clips([0, 1] * 5)
        clips[3].binary_labels["EX"] = bad
        with pytest.raises(LabelError, match="c0003"):
            make_folds(clips, "EX", seed=0)

    def test_repeated_clip_id_rejected(self):
        # one assignment per id could not hold both clips, nor both labels
        clips = [AnnotatedClip(clip_id=f"c{i % 5}", speaker_id=f"s{i}",
                               binary_labels={"EX": i // 5}) for i in range(10)]
        with pytest.raises(LabelError, match="'c0'"):
            make_folds(clips, "EX", seed=0)


def planted_labels(num_clips, seed):
    """Half positive, shuffled, as the benchmark corpora plant them."""
    rng = np.random.default_rng(seed)
    return (rng.permutation(num_clips) < num_clips // 2).astype(np.int8)


def judge_scores(planted, num_judges=11, scale=FIVE_POINT, trait="EX", seed=0):
    return synthetic_judge_scores(planted, num_judges, scale, 0.0,
                                  np.random.default_rng(seed), trait,
                                  [f"clip{i:04d}" for i in range(len(planted))])


class TestSyntheticCorpus:
    def test_shapes_and_scale(self):
        scores = judge_scores(planted_labels(64, 1))
        assert scores.matrix.shape == (11, 64)
        assert np.isin(scores.matrix, [1, 2, 3, 4, 5]).all()
        scores.validate_schema()

    def test_noiseless_labels_recovered_exactly(self):
        planted = planted_labels(48, 2)
        np.testing.assert_array_equal(binarize_majority(judge_scores(planted, seed=2)), planted)

    def test_continuous_schema(self):
        planted = planted_labels(30, 5)
        scores = judge_scores(planted, num_judges=6, scale=CONTINUOUS, trait="arousal", seed=5)
        scores.validate_schema()
        np.testing.assert_array_equal(binarize_majority(scores), planted)


class TestSchemaErrors:
    @pytest.mark.parametrize("judges, score, trait, scale, error", [
        (3, 3.0, "EX", FIVE_POINT, SchemaError),             # EX wants 11 judges
        (11, 6.0, "EX", FIVE_POINT, SchemaError),            # off the 1-5 scale
        (11, 2.5, "EX", FIVE_POINT, SchemaError),            # not a whole point
        (6, 1.5, "arousal", CONTINUOUS, SchemaError),        # outside [-1, 1]
        (11, 0.5, "EX", "seven_point", UnknownKind),
    ], ids=["judges", "five-point-range", "five-point-fraction", "continuous-range", "scale"])
    def test_validate_schema_rejects(self, judges, score, trait, scale, error):
        with pytest.raises(error):
            scores_from_matrix(np.full((judges, 4), score), trait=trait,
                               scale=scale).validate_schema()

    @pytest.mark.parametrize("shape, scale, trait", [
        ((6, 0), CONTINUOUS, "arousal"),
        ((11, 0), FIVE_POINT, "EX"),
    ], ids=["continuous", "five-point"])
    def test_validate_schema_rejects_a_matrix_with_no_clips(self, shape, scale, trait):
        """As ``binarize_majority`` does: the continuous range test's min()
        raised numpy's bare ValueError, and the five-point test passed."""
        with pytest.raises(SchemaError):
            JudgeScores(np.zeros(shape), scale, trait).validate_schema()

    @pytest.mark.parametrize("num_judges", [0, -1, 2.0, True])
    def test_synthetic_judge_count_not_positive_whole(self, num_judges):
        with pytest.raises(ShapeError):
            judge_scores(planted_labels(4, 0), num_judges=num_judges)

    @pytest.mark.parametrize("field, value", [("scale", "seven_point")])
    def test_synthetic_unknown_kind(self, field, value):
        with pytest.raises(UnknownKind):
            judge_scores(planted_labels(4, 0), **{field: value})

    @pytest.mark.parametrize("noise", [np.nan, np.inf], ids=["nan", "inf"])
    def test_synthetic_noise_not_finite_rejected(self, noise):
        # NaN noise would make every score NaN
        with pytest.raises(NonFinite):
            synthetic_judge_scores(planted_labels(4, 0), 11, FIVE_POINT, noise,
                                   np.random.default_rng(0), "EX", list("abcd"))

    @pytest.mark.parametrize("clips", [2, 4], ids=["fewer", "more"])
    def test_synthetic_clip_ids_not_one_per_planted_label_rejected(self, clips):
        # otherwise the matrix's clips and the ids would not match
        with pytest.raises(ShapeError):
            synthetic_judge_scores(planted_labels(3, 0), 11, FIVE_POINT, 0.0,
                                   np.random.default_rng(0), "EX", list("abcd")[:clips])


class TestCsvRoundTrips:
    def test_scores_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        by_trait = {}
        for trait in ("EX", "AG"):
            matrix = rng.integers(1, 6, size=(11, 8)).astype(np.float64)
            by_trait[trait] = scores_from_matrix(matrix, trait=trait)
        path = tmp_path / "scores.csv"
        write_scores_csv(path, by_trait)
        loaded = read_scores_csv(path)
        assert set(loaded) == {"EX", "AG"}
        for trait in by_trait:
            np.testing.assert_array_equal(loaded[trait].matrix, by_trait[trait].matrix)
            assert loaded[trait].clip_ids == by_trait[trait].clip_ids
            assert loaded[trait].scale == FIVE_POINT

    @pytest.mark.parametrize("trait, matrix, clips, error", [
        ("EX", np.full((11, 5), 3.0), 3, ShapeError),
        ("EX", np.full((11, 5), 3.0), 7, ShapeError),
        ("EX", np.full(5, 3.0), 5, ShapeError),
        ("EX", np.full((11, 5), np.nan), 5, NonFinite),
        ("XX", np.full((11, 5), 3.0), 5, FormatError),
        ("EX", np.zeros((11, 0)), 0, SchemaError),
    ], ids=["fewer_clip_ids", "more_clip_ids", "1d", "nan", "unknown_trait", "no_clips"])
    def test_writer_rejects_what_the_reader_rejects(self, tmp_path, trait, matrix, clips, error):
        """With 3 clip ids, an [11, 5] matrix was written as an 11 x 3 table;
        with 7, numpy's IndexError came after 95 bytes; a trait the reader
        rejects was written; and a trait with no clips wrote no row, so the
        reader dropped it.  Now nothing is written, not even the valid table
        that sorts first."""
        good = scores_from_matrix(np.full((11, 5), 4.0), trait="AG")
        bad = JudgeScores(matrix, FIVE_POINT, trait, clip_ids=[f"c{i}" for i in range(clips)],
                          judge_ids=good.judge_ids)
        path = tmp_path / "scores.csv"
        with pytest.raises(error):
            write_scores_csv(path, {"AG": good, trait: bad})
        assert not path.exists()

    def test_writer_rejects_no_traits(self, tmp_path):
        """An empty dict wrote a header alone, which the reader rejects as
        a file with no score rows."""
        path = tmp_path / "scores.csv"
        with pytest.raises(FormatError, match="no traits"):
            write_scores_csv(path, {})
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["judge", "clip"])
    def test_writer_rejects_repeated_ids(self, tmp_path, kind):
        """A repeated judge or clip id was written, and the reader then
        rejected the table's second score for that cell."""
        good = scores_from_matrix(np.full((11, 5), 4.0), trait="AG")
        ids = {"judge_ids": list(good.judge_ids), "clip_ids": list(good.clip_ids)}
        ids[f"{kind}_ids"][1] = ids[f"{kind}_ids"][0]
        bad = JudgeScores(np.full((11, 5), 3.0), FIVE_POINT, "EX", **ids)
        path = tmp_path / "scores.csv"
        with pytest.raises(FormatError, match=f"repeats {kind} ids"):
            write_scores_csv(path, {"AG": good, "EX": bad})
        assert not path.exists()

    @pytest.mark.parametrize("rows", [
        ["c1,j1,EX,3", "c2,j1,EX,4", "c1,j1,EX,5"],     # duplicate cell
        ["c1,j1,EX,3", "c2,j1,EX,nan"],                 # non-finite score
        ["c1,j1,EX,3", "c2,j1,EX,4", "c1,j2,EX,2"],     # (j2, c2) missing
        ["c1,j1,EX,3", "c2,j1,EX"],                     # row without a score
        ["c1,j1,EX,3", "c1,j1,Ex,4", "c2,j1,Ex,2"],     # trait name typo
    ], ids=["duplicate", "nan", "missing", "short_row", "unknown_trait"])
    def test_malformed_scores_rejected(self, tmp_path, rows):
        path = tmp_path / "scores.csv"
        path.write_text("\n".join(["clip_id,judge_id,trait,score", *rows]) + "\n")
        with pytest.raises(FormatError):
            read_scores_csv(path)

    @pytest.mark.parametrize("text", [
        "score,trait,judge_id,clip_id\n3,EX,j1,c1\n4,EX\n",
        "",
        "clip_id,judge_id,trait,score\n",
        "clip_id,judge_id,score\n",
    ], ids=["reordered_short_row", "empty", "header_only", "header_lacks_trait"])
    def test_scores_file_boundaries_rejected(self, tmp_path, text):
        path = tmp_path / "scores.csv"
        path.write_text(text)
        with pytest.raises(FormatError):
            read_scores_csv(path)

    def test_scores_header_naming_a_column_twice_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("clip_id,judge_id,trait,score,clip_id\nc1,j1,EX,3,c2\n")
        with pytest.raises(FormatError, match=r"\['clip_id'\] more than once"):
            read_scores_csv(path)
