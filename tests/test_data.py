import json
import math

import numpy as np
import pytest

from simbound import Dataset, GeneratorKind, GeneratorSpec, generate, load_csv, save_csv
from simbound.data import dataset_from_json_dict, dataset_to_json_dict


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(np.ones(3), np.array([1.0, -1.0, 1.0]))
    data = Dataset([[1.0, 2.0]], [-1])
    assert data.m == 1 and data.d == 2
    assert data.features.dtype == np.float64


def test_dataset_rejects_non_finite_features():
    features = np.ones((4, 3))
    features[2, 1] = np.nan
    features[3, 0] = np.inf
    with pytest.raises(ValueError, match=r"row 2 \(counting from 0\)"):
        Dataset(features, np.ones(4))
    features[2, 1] = 0.0
    with pytest.raises(ValueError, match="row 3"):
        Dataset(features, np.ones(4))


def test_load_csv_rejects_non_finite_features(tmp_path):
    for token in ("nan", "inf", "-inf", "NaN"):
        path = tmp_path / "bad.csv"
        path.write_text(f"label,f1,f2\n1,1.0,2.0\n\n-1,{token},0.5\n1,3.0,4.0\n")
        with pytest.raises(ValueError, match="row 4: non-finite feature"):
            load_csv(path)


def test_load_csv_basic(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("1,0.5,0.25\n-1,1.0,0.0\n")
    data = load_csv(path)
    assert data.m == 2 and data.d == 2
    assert np.array_equal(data.labels, [1.0, -1.0])
    assert np.array_equal(data.features, [[0.5, 0.25], [1.0, 0.0]])


def test_load_csv_header_and_plus_token(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("label,f1\n+1,3.5\n-1,-2.0\n")
    data = load_csv(path)
    assert data.m == 2
    assert np.array_equal(data.labels, [1.0, -1.0])


def test_load_csv_strict_labels(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1.0,2.0\n")
    with pytest.raises(ValueError, match="row 1"):
        load_csv(path)


def test_load_csv_reports_row_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,1.0\n-1,2.0\n2,3.0\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(path)


def test_load_csv_ragged_and_nonnumeric(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,1.0,2.0\n-1,3.0\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(ragged)
    textual = tmp_path / "textual.csv"
    textual.write_text("1,abc\n")
    with pytest.raises(ValueError, match="row 1"):
        load_csv(textual)


def test_csv_round_trip_exact(tmp_path, rng):
    # shortest round-trip decimals must reproduce doubles bit for bit
    features = rng.standard_normal((7, 3)) * np.array([1e-8, 1.0, 1e8])
    labels = np.where(rng.integers(0, 2, size=7) == 1, 1.0, -1.0)
    data = Dataset(features, labels)
    path = tmp_path / "round.csv"
    save_csv(data, path)
    back = load_csv(path)
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)


def test_json_round_trip(rng):
    data = Dataset(rng.standard_normal((4, 2)), [1.0, -1.0, 1.0, -1.0])
    back = dataset_from_json_dict(json.loads(json.dumps(dataset_to_json_dict(data))))
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)


def test_generate_deterministic():
    spec = GeneratorSpec(kind="two_gaussians", d=3, mean_separation=1.0, noise_sigma=1.0, seed=9)
    a = generate(spec, 16)
    b = generate(spec, 16)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_generate_labels_are_signs():
    spec = GeneratorSpec(kind="two_gaussians", d=2, mean_separation=0.0, noise_sigma=0.5, seed=1)
    data = generate(spec, 400)
    assert set(np.unique(data.labels)) == {-1.0, 1.0}


def test_generate_zero_separation_centers():
    m = 4000
    spec = GeneratorSpec(kind="two_gaussians", d=2, mean_separation=0.0, noise_sigma=1.0, seed=5)
    data = generate(spec, m)
    for label in (-1.0, 1.0):
        rows = data.features[data.labels == label]
        bound = 4.0 / math.sqrt(rows.shape[0])
        assert np.all(np.abs(rows.mean(axis=0)) < bound)


def test_generate_two_gaussians_means():
    m = 20000
    sep = 3.0
    d = 4
    spec = GeneratorSpec(kind="two_gaussians", d=d, mean_separation=sep, noise_sigma=1.0, seed=11)
    data = generate(spec, m)
    expected = sep / (2.0 * math.sqrt(d))
    for label in (-1.0, 1.0):
        rows = data.features[data.labels == label]
        bound = 4.0 / math.sqrt(rows.shape[0])
        assert np.all(np.abs(rows.mean(axis=0) - label * expected) < bound)


def test_sparse_blobs_irrelevant_coordinates():
    m = 10000
    d = 6
    spec = GeneratorSpec(
        kind="sparse_blobs", d=d, mean_separation=4.0, noise_sigma=1.0, irrelevant_dims=d - 1, seed=3
    )
    data = generate(spec, m)
    for j in range(1, d):
        corr = float(np.corrcoef(data.labels, data.features[:, j])[0, 1])
        assert abs(corr) < 4.0 / math.sqrt(m)
    # the one informative coordinate really separates
    informative = float(np.corrcoef(data.labels, data.features[:, 0])[0, 1])
    assert informative > 0.5


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(kind="two_gaussians", d=0, mean_separation=1.0, noise_sigma=1.0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="two_gaussians", d=2, mean_separation=1.0, noise_sigma=0.0)
    with pytest.raises(ValueError, match="noise_sigma"):
        GeneratorSpec(kind="two_gaussians", d=2, mean_separation=1.0, noise_sigma=math.inf)
    for separation in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="mean_separation"):
            GeneratorSpec(kind="two_gaussians", d=2, mean_separation=separation, noise_sigma=1.0)
    with pytest.raises(ValueError):
        GeneratorSpec(
            kind="sparse_blobs", d=2, mean_separation=1.0, noise_sigma=1.0, irrelevant_dims=2
        )
    with pytest.raises(ValueError, match="irrelevant_dims must be 0 for two_gaussians, got 1"):
        GeneratorSpec(
            kind="two_gaussians", d=3, mean_separation=1.0, noise_sigma=1.0, irrelevant_dims=1
        )
    with pytest.raises(ValueError):
        generate(
            GeneratorSpec(kind="two_gaussians", d=2, mean_separation=1.0, noise_sigma=1.0), 0
        )
    assert GeneratorSpec(kind="sparse_blobs", d=2, mean_separation=1.0, noise_sigma=1.0).kind is GeneratorKind.SPARSE_BLOBS
