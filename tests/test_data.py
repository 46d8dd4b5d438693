import json
import math

import numpy as np
import pytest

from simbound import Dataset, GeneratorKind, GeneratorSpec, generate, load_csv, save_csv
from simbound.data import (
    _NUMBER_ROWS, _NUMBERS, _rademacher_signs, _require, dataset_from_json_dict,
    dataset_to_json_dict, philox_generator,
)


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


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" export and PowerShell 5's Out-File -Encoding utf8
    # start the file with one, before the header if there is one.
    for text in ("label,f1\n+1,3.5\n-1,-2.0\n", "1,3.5\n-1,-2.0\n"):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        data = load_csv(path)
        assert np.array_equal(data.labels, [1.0, -1.0])
        assert np.array_equal(data.features, [[3.5], [-2.0]])


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


def test_load_csv_without_data_or_features(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("label,f1\n\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(empty)
    label_only = tmp_path / "label_only.csv"
    label_only.write_text("1\n-1,2.0\n")
    with pytest.raises(ValueError, match="row 1: no feature columns"):
        load_csv(label_only)


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


def test_dataset_json_checks_values_and_counts():
    # Strings and bools used to load as numbers, and m and d went unread.
    with pytest.raises(ValueError, match="^dataset document missing field 'm'$"):
        dataset_from_json_dict({"labels": ["1", True], "features": [["2.5"], [False]]})
    doc = {"m": 2, "d": 1, "labels": [1, -1], "features": [[2.5], [1.0]]}
    for field, value, message in (
        ("labels", ["1", -1], r"labels must be a list of finite numbers, got labels\[0\] = '1'$"),
        ("labels", [True, -1], r"labels must be a list of finite numbers, got labels\[0\] = True$"),
        ("labels", [1, 0], r"labels must be exactly -1 or \+1"),
        ("features", [["2.5"], [1.0]],
         r"features must be a list of lists of finite numbers, got features\[0\]\[0\] = '2.5'$"),
        ("features", [[2.5], [False]],
         r"features must be a list of lists of finite numbers, got features\[1\]\[0\] = False$"),
        ("features", [[2.5], [math.nan]],
         r"features must be a list of lists of finite numbers, got features\[1\]\[0\] = nan$"),
        ("features", [[2.5], 1.0],
         r"features must be a list of lists of finite numbers, got features\[1\] = 1.0$"),
        ("features", "2.5", r"features must be a list of lists of finite numbers, got '2.5'$"),
        ("m", 7, "labels and features must be m = 7 labels and rows of d = 1 numbers"),
        ("d", 9, "labels and features must be m = 2 labels and rows of d = 9 numbers"),
        ("features", [[2.5], [1.0, 3.0]], "labels and features must be m = 2 labels and rows of d = 1"),
        ("features", [[2.5]], "labels and features must be m = 2 labels and rows of d = 1"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            dataset_from_json_dict({**doc, field: value})
    with pytest.raises(ValueError, match="^dataset document must be an object, got list$"):
        dataset_from_json_dict([doc])
    back = dataset_from_json_dict({**doc, "labels": [1.0, -1.0]})
    assert back.labels.tolist() == [1.0, -1.0] and back.features.tolist() == [[2.5], [1.0]]


def test_list_messages_name_the_first_bad_element():
    # A long list is not printed whole: the message names the field and its
    # first bad element by index, at any length and nesting.
    numbers = [0.5] * 100_000
    numbers[77_777] = math.inf
    rows = [[0.5] * 5 for _ in range(20_000)]
    rows[12_345][3] = "x"
    for value, rule, message in (
        (numbers, _NUMBERS, "entries must be a list of finite numbers, got entries[77777] = inf"),
        (rows, _NUMBER_ROWS,
         "entries must be a list of lists of finite numbers, got entries[12345][3] = 'x'"),
    ):
        with pytest.raises(ValueError) as info:
            _require("entries", value, rule)
        assert str(info.value) == message


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


def test_generate_keeps_the_broadcast_bits():
    # generate scales the noise and adds y_i mu_k, a d x m product
    # transposed, in the noise buffer; the features equal the broadcast
    # labels[:, None] * mean[None, :] + sigma * noise bit for bit, signed
    # zeros included, for both kinds at sigma = 1 and sigma != 1
    # (sparse_blobs' zero means among them, also with noise that rounds to
    # signed zeros), and come out C-contiguous.
    specs = [
        GeneratorSpec(kind="two_gaussians", d=5, mean_separation=2.0, noise_sigma=1.0, seed=4),
        GeneratorSpec(kind="two_gaussians", d=1, mean_separation=-3.0, noise_sigma=0.5, seed=5),
        GeneratorSpec(kind="two_gaussians", d=5, mean_separation=2.0, noise_sigma=0.37, seed=8),
        GeneratorSpec(
            kind="sparse_blobs", d=5, mean_separation=2.0, noise_sigma=0.37, irrelevant_dims=2,
            seed=9,
        ),
        GeneratorSpec(
            kind="sparse_blobs", d=6, mean_separation=4.0, noise_sigma=1.0, irrelevant_dims=4,
            seed=6,
        ),
        GeneratorSpec(
            kind="sparse_blobs", d=3, mean_separation=1.0, noise_sigma=5e-324, irrelevant_dims=2,
            seed=7,
        ),
    ]
    for spec in specs:
        for m in (1, 7, 1000, 10000):
            rng = philox_generator(spec.seed)
            labels = _rademacher_signs(rng, m)
            noise = rng.standard_normal((m, spec.d))
            mean = np.zeros(spec.d)
            informative = spec.d
            if spec.kind is GeneratorKind.SPARSE_BLOBS:
                informative -= spec.irrelevant_dims
            mean[:informative] = spec.mean_separation / (2.0 * math.sqrt(spec.d))
            expected = labels[:, None] * mean[None, :] + spec.noise_sigma * noise
            data = generate(spec, m)
            assert data.features.flags.c_contiguous
            assert data.features.tobytes() == expected.tobytes(), (spec, m)
            assert data.labels.tobytes() == labels.tobytes()


def test_generator_spec_validation():
    with pytest.raises(ValueError, match="^kind must be a generator kind, got 'uniform'$"):
        GeneratorSpec(kind="uniform", d=2, mean_separation=1.0, noise_sigma=1.0)
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
    # A count or a seed is an int: a fraction is refused, never truncated.
    with pytest.raises(ValueError, match=r"d must be a positive int below 2\*\*63, got 2.5"):
        GeneratorSpec(kind="two_gaussians", d=2.5, mean_separation=1.0, noise_sigma=1.0)
    with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\*\*128\), got 1.5"):
        GeneratorSpec(kind="two_gaussians", d=2, mean_separation=1.0, noise_sigma=1.0, seed=1.5)
    with pytest.raises(ValueError, match=r"m must be a positive int below 2\*\*63, got 2.5"):
        generate(
            GeneratorSpec(kind="two_gaussians", d=2, mean_separation=1.0, noise_sigma=1.0), 2.5
        )
    with pytest.raises(ValueError, match="seed must be an int"):
        philox_generator(1.5)
    # numpy sizes arrays with int64, so a count stops below 2**63.
    with pytest.raises(ValueError, match=rf"d must be a positive int below 2\*\*63, got {2 ** 63}"):
        GeneratorSpec(kind="two_gaussians", d=2 ** 63, mean_separation=1.0, noise_sigma=1.0)
    assert GeneratorSpec(
        kind="two_gaussians", d=2 ** 63 - 1, mean_separation=1.0, noise_sigma=1.0
    ).d == 2 ** 63 - 1
    # GeneratorSpec takes every seed philox_generator takes.
    assert GeneratorSpec(
        kind="two_gaussians", d=2, mean_separation=1.0, noise_sigma=1.0, seed=2 ** 128 - 1
    ).seed == 2 ** 128 - 1
    assert GeneratorSpec(kind="sparse_blobs", d=2, mean_separation=1.0, noise_sigma=1.0).kind is GeneratorKind.SPARSE_BLOBS
