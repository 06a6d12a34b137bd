import numpy as np
import pytest

from adaptsmooth.errors import DataError
from adaptsmooth.phantom import PhantomSpec, _blob, generate, separability_weights
from adaptsmooth.volume_io import read_manifest, read_volume


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("phantom")
    spec = PhantomSpec(dims=(20, 20, 20), n_subjects=4,
                       volumes_per_subject_per_class=3,
                       center_offset_x=4, blob_radius=1.6,
                       noise_levels=(0.0, 0.2), split_counts=(2, 1, 1))
    manifest = generate(spec, out, seed=11)
    return spec, out, manifest


class TestBlob:
    def test_peak_at_center(self):
        b = _blob((9, 9, 9), (4, 4, 4), 2.0)
        assert b[4, 4, 4] == 1.0
        assert b.argmax() == np.ravel_multi_index((4, 4, 4), b.shape)

    def test_hard_truncation(self):
        b = _blob((15, 15, 15), (7, 7, 7), 2.0, support_radius=3.0)
        sq = sum(((np.arange(15) - 7) ** 2)[sl]
                 for sl in [(slice(None), None, None),
                            (None, slice(None), None),
                            (None, None, slice(None))])
        assert np.all(b[sq > 9.0] == 0.0)
        assert np.all(b[sq <= 9.0] > 0.0)


class TestSpecValidation:
    def test_default_spec_valid(self):
        PhantomSpec().validate()

    def test_overlapping_supports_rejected(self):
        spec = PhantomSpec(center_offset_x=2)
        with pytest.raises(DataError, match="overlap"):
            spec.validate()

    @pytest.mark.parametrize("field, value", [
        ("blob_radius", 0.0), ("blob_radius", -1.0), ("blob_radius", float("nan")),
        ("blob_radius", float("inf")), ("amplitude", float("nan")),
        ("amplitude", float("inf")),
    ])
    def test_blob_radius_and_amplitude_ranges(self, field, value):
        with pytest.raises(DataError, match=field):
            PhantomSpec(**{field: value}).validate()

    def test_split_counts_must_sum(self):
        spec = PhantomSpec(n_subjects=5)
        with pytest.raises(DataError, match="sum"):
            spec.validate()

    @pytest.mark.parametrize("levels, named", [
        ((0.1, 0.1000001), "0.1, 0.1000001"), ((0.0, 0.2, 0.0), "0.0, 0.0"),
    ])
    def test_levels_sharing_a_file_name_rejected(self, levels, named):
        # each volume's file name prints its level as %g, so these levels
        # would write their volumes over each other's
        with pytest.raises(DataError, match=f"noise levels {named} share a volume file"):
            PhantomSpec(noise_levels=levels).validate()


class TestGeneratedData:
    def test_file_count_and_balance(self, small_dataset):
        spec, out, manifest = small_dataset
        expected = spec.n_subjects * 2 * spec.volumes_per_subject_per_class \
            * len(spec.noise_levels)
        assert len(manifest.entries) == expected
        labels = [e.label for e in manifest.entries]
        assert labels.count(0) == labels.count(1)
        for e in manifest.entries:
            assert (out / e.path).exists()

    def test_values_normalized(self, small_dataset):
        spec, out, manifest = small_dataset
        for e in manifest.entries:
            if e.noise_level == 0.0:
                v = read_volume(out / e.path)
                assert v.data.min() >= 0.0 and v.data.max() <= 1.0

    def test_each_subject_spans_exactly_zero_to_one(self, small_dataset):
        # a subject's noiseless volumes are normalized by their shared
        # extrema, so as written they reach exactly 0 and exactly 1
        spec, out, manifest = small_dataset
        by_subject = {}
        for e in manifest.entries:
            if e.noise_level == 0.0:
                by_subject.setdefault(e.subject_id, []).append(read_volume(out / e.path).data)
        assert len(by_subject) == spec.n_subjects
        for volumes in by_subject.values():
            assert len(volumes) == 2 * spec.volumes_per_subject_per_class
            assert np.min(volumes) == 0.0 and np.max(volumes) == 1.0

    def test_class_difference_confined_to_blob_supports(self, small_dataset):
        # outside the two class supports the noiseless class means must agree,
        # because the shared anatomy is identical within a subject
        spec, out, manifest = small_dataset
        by_subject = {}
        for e in manifest.entries:
            if e.noise_level == 0.0:
                by_subject.setdefault(e.subject_id, {0: [], 1: []})[e.label].append(
                    read_volume(out / e.path).data)
        h, w, d = spec.dims
        reach = spec.support_radius + spec.jitter_voxels * np.sqrt(3.0)
        support = np.zeros(spec.dims, dtype=bool)
        for cx in (w / 2 - spec.center_offset_x, w / 2 + spec.center_offset_x):
            sq = ((np.arange(h) - h / 2) ** 2)[:, None, None] \
                + ((np.arange(w) - cx) ** 2)[None, :, None] \
                + ((np.arange(d) - d / 2) ** 2)[None, None, :]
            support |= sq <= reach * reach
        for groups in by_subject.values():
            diff = np.mean(groups[1], axis=0) - np.mean(groups[0], axis=0)
            assert np.max(np.abs(diff[~support])) < 1e-9
            assert np.max(np.abs(diff[support])) > 1e-3

    def test_linearly_separable_without_noise(self, small_dataset):
        spec, out, manifest = small_dataset
        wvec = separability_weights(spec)
        scores = {0: [], 1: []}
        for e in manifest.entries:
            if e.noise_level == 0.0:
                v = read_volume(out / e.path)
                # subtract the subject mean so the shared anatomy cancels
                scores[e.label].append(float(wvec @ v.data.ravel()))
        per_subject_gap = max(scores[0]) < min(scores[1])
        assert per_subject_gap

    def test_deterministic_per_seed(self, tmp_path):
        spec = PhantomSpec(dims=(16, 16, 16), n_subjects=3,
                           volumes_per_subject_per_class=2,
                           center_offset_x=3, blob_radius=1.3,
                           noise_levels=(0.0, 0.1), split_counts=(1, 1, 1))
        m1 = generate(spec, tmp_path / "a", seed=5)
        m2 = generate(spec, tmp_path / "b", seed=5)
        assert [e.path for e in m1.entries] == [e.path for e in m2.entries]
        for e in m1.entries:
            assert (tmp_path / "a" / e.path).read_bytes() == \
                (tmp_path / "b" / e.path).read_bytes()
        m3 = generate(spec, tmp_path / "c", seed=6)
        same = all((tmp_path / "a" / e.path).read_bytes()
                   == (tmp_path / "c" / e.path).read_bytes() for e in m3.entries)
        assert not same

    def test_manifest_round_trips_with_splits(self, small_dataset):
        spec, out, manifest = small_dataset
        back = read_manifest(out / "manifest.csv")
        assert back.split == manifest.split
        assert sorted(back.split.values()) == \
            sorted(["train"] * 2 + ["validation", "test"])

    def test_noise_levels_present(self, small_dataset):
        spec, out, manifest = small_dataset
        assert {e.noise_level for e in manifest.entries} == set(spec.noise_levels)
        # the noisy variant of a volume differs from its clean master
        clean = {e.path: e for e in manifest.entries if e.noise_level == 0.0}
        noisy = next(e for e in manifest.entries if e.noise_level == 0.2)
        twin = noisy.path.replace("_n0.2", "_n0")
        assert twin in clean
        a = read_volume(out / noisy.path).data
        b = read_volume(out / twin).data
        assert np.std(a - b) == pytest.approx(0.2, rel=0.15)
