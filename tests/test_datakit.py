import struct

import numpy as np
import pytest

from hngen import datakit as dk
from hngen.errors import ConfigurationError, DataFormatError, SamplingError

from oracles import loop_sample_balanced


def small_spec(**kw):
    base = dict(num_classes=2, samples_per_class=3, input_dim=4, seed=7)
    base.update(kw)
    return dk.SyntheticDatasetSpec(**base)


class TestMakeSynthetic:
    def test_cardinality_and_labels(self):
        ds = dk.make_synthetic(small_spec())
        assert len(ds) == 6
        assert sorted(ds.labels.tolist()) == [1, 1, 1, 2, 2, 2]
        assert ds.dim == 4

    def test_deterministic_for_seed(self):
        a = dk.make_synthetic(small_spec())
        b = dk.make_synthetic(small_spec())
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_overlap_shrinks_center_distances(self):
        def mean_center_dist(overlap):
            ds = dk.make_synthetic(
                small_spec(num_classes=6, samples_per_class=2, overlap_factor=overlap,
                           within_class_stddev=1e-9)
            )
            centers = np.array([ds.features[ds.labels == c].mean(0) for c in ds.classes])
            d = np.linalg.norm(centers[:, None] - centers[None], axis=-1)
            return d[np.triu_indices(6, 1)].mean()

        assert mean_center_dist(0.0) > mean_center_dist(0.9)

    @pytest.mark.parametrize(
        "kw,msg",
        [
            (dict(num_classes=1), "num_classes"),
            (dict(samples_per_class=1), "samples_per_class"),
            (dict(within_class_stddev=0.0), "within_class_stddev"),
            (dict(overlap_factor=1.5), "overlap_factor"),
        ],
    )
    def test_invalid_spec_names_field(self, kw, msg):
        with pytest.raises(ConfigurationError, match=msg):
            dk.make_synthetic(small_spec(**kw))


class TestFeatureIO:
    def test_csv_single_record(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("1,0.5,0.5\n")
        ds = dk.load_features(p)
        assert len(ds) == 1
        assert ds.labels[0] == 1
        assert np.allclose(ds.features[0], [0.5, 0.5])

    def test_csv_header_detected(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("label,feat_0,feat_1\n2,1.0,2.0\n")
        ds = dk.load_features(p)
        assert len(ds) == 1 and ds.labels[0] == 2

    def test_csv_byte_order_mark_keeps_the_first_record(self, tmp_path):
        ds = dk.make_synthetic(small_spec())
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        dk.save_csv(ds, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        back = dk.load_features(marked)
        assert np.array_equal(back.labels, dk.load_features(plain).labels)
        assert np.array_equal(back.features, dk.load_features(plain).features)

    def test_csv_byte_order_mark_before_a_header_skips_only_the_header(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_bytes(b"\xef\xbb\xbflabel,feat_0,feat_1\n2,1.0,2.0\n3,0.5,0.25\n")
        ds = dk.load_features(p)
        assert ds.labels.tolist() == [2, 3]
        assert ds.features.tolist() == [[1.0, 2.0], [0.5, 0.25]]

    def test_empty_file_errors(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataFormatError, match="no records"):
            dk.load_features(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,0.5,0.5\n2,0.1\n")
        with pytest.raises(DataFormatError, match="line 2"):
            dk.load_features(p)

    @pytest.mark.parametrize("row", ["1,nan,0.5", "1,0.5,inf", "inf,0.5,0.5", "nan,0.5,0.5"])
    def test_non_finite_csv_value_reports_line(self, tmp_path, row):
        p = tmp_path / "bad.csv"
        p.write_text(f"1,0.5,0.5\n{row}\n")
        with pytest.raises(DataFormatError, match="line 2"):
            dk.load_features(p)

    @pytest.mark.parametrize("label", ["1.7", "1e30", "2.0", str(2**63), "x1"])
    def test_csv_label_not_an_int64_reports_line(self, tmp_path, label):
        # 1.7 used to load as class 1, and 1e30 to overflow the int64 array
        p = tmp_path / "bad.csv"
        p.write_text(f"1,0.5,0.5\n{label},0.1,0.2\n")
        with pytest.raises(DataFormatError, match="line 2"):
            dk.load_features(p)

    def test_csv_labels_at_the_int64_bounds_load(self, tmp_path):
        p = tmp_path / "wide.csv"
        p.write_text(f"{-(2**63)},0.5,0.5\n{2**63 - 1},0.1,0.2\n")
        assert dk.load_features(p).labels.tolist() == [-(2**63), 2**63 - 1]

    def test_binary_without_feature_columns_refused(self, tmp_path):
        # three records of dim 0: each is just its u32 label
        p = tmp_path / "dim0.bin"
        p.write_bytes(dk.BINARY_MAGIC + struct.pack("<IQI", dk.BINARY_VERSION, 3, 0)
                      + struct.pack("<3I", 1, 2, 1))
        with pytest.raises(DataFormatError, match="no feature columns"):
            dk.load_features(p)

    def test_csv_round_trip_exact(self, tmp_path):
        ds = dk.make_synthetic(small_spec())
        p = tmp_path / "rt.csv"
        dk.save_csv(ds, p)
        back = dk.load_features(p)
        assert np.array_equal(back.features, ds.features)  # repr round-trips float64
        assert np.array_equal(back.labels, ds.labels)

    def test_binary_round_trip_float32_tolerance(self, tmp_path):
        ds = dk.make_synthetic(small_spec())
        p = tmp_path / "rt.bin"
        dk.save_binary(ds, p)
        back = dk.load_features(p)
        assert np.array_equal(back.labels, ds.labels)
        assert np.allclose(back.features, ds.features, atol=1e-6, rtol=1e-6)

    @pytest.mark.parametrize("n, dim", [(500, 7), (3, 1), (2, 0)])
    def test_binary_bytes_are_the_record_by_record_layout(self, tmp_path, n, dim):
        rng = np.random.default_rng(n)
        ds = dk.Dataset(rng.standard_normal((n, dim)) * 1e3, rng.integers(0, 2**32, size=n))
        expect = dk.BINARY_MAGIC + struct.pack("<IQI", dk.BINARY_VERSION, n, dim) + b"".join(
            struct.pack("<I", int(label)) + row.astype("<f4").tobytes()
            for label, row in zip(ds.labels, ds.features))
        dk.save_binary(ds, tmp_path / "x.bin")
        assert (tmp_path / "x.bin").read_bytes() == expect

    @pytest.mark.parametrize("label", [-1, 2**32])
    def test_binary_label_outside_u32_refused_before_writing(self, tmp_path, label):
        # a numpy cast to u32 would wrap it silently
        p = tmp_path / "x.bin"
        with pytest.raises(DataFormatError, match=f"label {label} "):
            dk.save_binary(dk.Dataset(np.zeros((2, 3)), [1, label]), p)
        assert not p.exists()

    def test_binary_header_claiming_more_than_the_file_is_truncated(self, tmp_path):
        # count 2**40 of dim 2**20 would ask read() for 2**62 bytes
        p = tmp_path / "huge.bin"
        p.write_bytes(dk.BINARY_MAGIC + struct.pack("<IQI", dk.BINARY_VERSION, 2**40, 2**20)
                      + bytes(4 + 4 * 3))
        with pytest.raises(DataFormatError, match="truncated records"):
            dk.load_features(p)

    @pytest.mark.parametrize("fmt", ["auto", "csv", "binary"])
    def test_unreadable_file_is_data_format_error(self, tmp_path, fmt):
        with pytest.raises(DataFormatError, match="cannot read"):
            dk.load_features(tmp_path / "missing.csv", fmt)
        with pytest.raises(DataFormatError, match="cannot read"):
            dk.load_features(tmp_path, fmt)  # a directory

    def test_binary_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataFormatError, match="magic"):
            dk.load_features(p, fmt="binary")


class TestClassIndex:
    def test_index_matches_unique_and_flatnonzero(self):
        labels = np.array([7, -(2**63), 3, 7, 2**63 - 1, 3, 3, -(2**63), 7])
        ds = dk.Dataset(np.zeros((labels.size, 2)), labels)
        assert np.array_equal(ds.classes, np.unique(labels))
        assert len(ds.class_rows) == ds.classes.size
        for c, rows in zip(ds.classes, ds.class_rows):
            assert np.array_equal(rows, np.flatnonzero(labels == c))
        assert not ds.classes.flags.writeable
        assert not any(rows.flags.writeable for rows in ds.class_rows)


class TestLabeledBatch:
    @pytest.mark.parametrize("labels, n, m, msg", [
        ([1, 1, 1], 1, 3, "negative"),
        ([1, 2, 3], 3, 1, "positive"),
        ([1, 2, 1, 2], 2, 3, "batch size"),
        ([1, 1, 2, 2], 2, 2, "distinct"),
        ([1, 2, 3, 1, 3, 2], 3, 2, "repeat"),
    ], ids=["one_class", "one_instance", "size", "first_group_repeats_a_class",
            "group_order_changes"])
    def test_bad_layout_refused(self, labels, n, m, msg):
        labels = np.array(labels)
        with pytest.raises(SamplingError, match=msg):
            dk.LabeledBatch(np.zeros((labels.size, 2)), labels, n, m)


class TestBalancedSampler:
    def test_matches_the_label_scan_sampler(self):
        ds = dk.make_synthetic(small_spec(num_classes=6, samples_per_class=7))
        # shuffled rows and uneven classes of 5 to 7 rows
        ds = ds.subset(np.random.default_rng(3).permutation(np.delete(np.arange(42), [0, 1, 15])))
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        for n, m in [(2, 2), (4, 3), (3, 4)] * 20:
            batch = dk.sample_balanced(ds, n, m, rng)
            feats, labels = loop_sample_balanced(ds.features, ds.labels, n, m, ref_rng)
            assert batch.features.tobytes() == feats.tobytes()
            assert np.array_equal(batch.labels, labels)

    def test_group_order_repeats(self):
        ds = dk.make_synthetic(small_spec(num_classes=5, samples_per_class=4))
        rng = np.random.default_rng(0)
        batch = dk.sample_balanced(ds, n_classes=3, n_instances=2, rng=rng)
        base = batch.labels[:3]
        assert np.array_equal(batch.labels[3:6], base)
        assert len(set(base.tolist())) == 3

    def test_no_repeated_sample_index(self):
        ds = dk.make_synthetic(small_spec(num_classes=4, samples_per_class=5))
        rng = np.random.default_rng(1)
        for _ in range(50):
            batch = dk.sample_balanced(ds, 3, 3, rng)
            # the synthetic features are continuous, so distinct rows are distinct samples
            assert len(np.unique(batch.features, axis=0)) == len(batch.labels)

    def test_m1_refused(self):
        ds = dk.make_synthetic(small_spec())
        with pytest.raises(SamplingError, match="positive"):
            dk.sample_balanced(ds, 2, 1, np.random.default_rng(0))

    def test_insufficient_class_named(self):
        ds = dk.make_synthetic(small_spec(num_classes=3, samples_per_class=2))
        with pytest.raises(SamplingError, match="class"):
            dk.sample_balanced(ds, 3, 4, np.random.default_rng(0))

    def test_insufficient_classes(self):
        ds = dk.make_synthetic(small_spec(num_classes=2, samples_per_class=3))
        with pytest.raises(SamplingError, match="classes"):
            dk.sample_balanced(ds, 5, 2, np.random.default_rng(0))

    def test_class_choice_uniform_chi2(self):
        # 10,000 draws of N=2 from 4 classes: the 6 unordered class pairs
        # should be uniform; chi-square with 5 dof at the 0.01 level.
        ds = dk.make_synthetic(small_spec(num_classes=4, samples_per_class=3))
        rng = np.random.default_rng(123)
        counts: dict[tuple[int, int], int] = {}
        draws = 10_000
        for _ in range(draws):
            batch = dk.sample_balanced(ds, 2, 2, rng)
            key = tuple(sorted(batch.labels[:2].tolist()))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        expected = draws / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 15.086  # critical value, chi2(5) at p=0.01
        per_class = {c: 0 for c in (1, 2, 3, 4)}
        for (a, b), n in counts.items():
            per_class[a] += n
            per_class[b] += n
        for c, n in per_class.items():
            assert 0.47 < n / draws < 0.53


class TestHoldout:
    def test_split_sizes_and_disjoint(self):
        ds = dk.make_synthetic(small_spec(num_classes=3, samples_per_class=10))
        train, val = dk.split_holdout(ds, 2, np.random.default_rng(0))
        assert len(train) == 24 and len(val) == 6
        for c in (1, 2, 3):
            assert (val.labels == c).sum() == 2

    def test_split_refuses_overdraw(self):
        ds = dk.make_synthetic(small_spec())
        with pytest.raises(SamplingError):
            dk.split_holdout(ds, 3, np.random.default_rng(0))
