"""Dataset container, CSV and JSON serialization, and generators.

CSV layout: one row per example, ``label,feat_1,...,feat_d``.  Labels must be
one of the tokens ``-1``, ``1``, ``+1``.  A header row is recognized only when
the first cell is the literal ``label``.  All randomness flows through Philox
counter-based streams keyed by the caller's seed; normal variates come from
numpy's ziggurat sampler on those streams, and the draw order (labels first,
then the noise matrix) is fixed, so generation is reproducible byte for byte.
"""

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np


class GeneratorKind(str, Enum):
    TWO_GAUSSIANS = "two_gaussians"
    SPARSE_BLOBS = "sparse_blobs"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled sample: features (m, d) float64, labels (m,) valued in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.ascontiguousarray(np.asarray(self.features, dtype=float))
        labels = np.asarray(self.labels, dtype=float)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-dimensional, got shape {features.shape}")
        if features.shape[0] < 1 or features.shape[1] < 1:
            raise ValueError(f"dataset needs at least one row and one column, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} does not match {features.shape[0]} rows"
            )
        bad_row = _first_nonfinite_row(features)
        if bad_row is not None:
            raise ValueError(f"features must be finite; row {bad_row} (counting from 0) is not")
        if not np.all((labels == 1.0) | (labels == -1.0)):
            raise ValueError("labels must be exactly -1 or +1")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def m(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]


def _first_nonfinite_row(features):
    finite = np.isfinite(features)
    # The per-row reduction is an order of magnitude slower than the flat one.
    return None if finite.all() else int(finite.all(axis=1).argmin())


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for the synthetic two-class generators.

    two_gaussians: labels are uniform on {-1, +1}; features are drawn from
    Normal(y * mu, noise_sigma^2 I) with mu = (mean_separation / 2) * 1/sqrt(d)
    in every coordinate.  sparse_blobs uses the same mean on the first
    d - irrelevant_dims coordinates and leaves the remaining coordinates as
    pure Normal(0, noise_sigma^2) noise; two_gaussians takes irrelevant_dims 0.
    """

    kind: GeneratorKind
    d: int
    mean_separation: float
    noise_sigma: float
    irrelevant_dims: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", GeneratorKind(self.kind))
        if self.d < 1:
            raise ValueError(f"d must be positive, got {self.d}")
        if not math.isfinite(self.mean_separation):
            raise ValueError(f"mean_separation must be finite, got {self.mean_separation}")
        if not 0 < self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be positive and finite, got {self.noise_sigma}")
        if self.irrelevant_dims < 0:
            raise ValueError(f"irrelevant_dims must be nonnegative, got {self.irrelevant_dims}")
        if self.kind is GeneratorKind.SPARSE_BLOBS and self.irrelevant_dims >= self.d:
            raise ValueError(
                f"irrelevant_dims must be below d for sparse blobs, got {self.irrelevant_dims} with d={self.d}"
            )
        if self.kind is GeneratorKind.TWO_GAUSSIANS and self.irrelevant_dims != 0:
            raise ValueError(
                f"irrelevant_dims must be 0 for two_gaussians, got {self.irrelevant_dims}"
            )
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def philox_generator(seed):
    """Philox counter-based generator keyed by seed, counter at zero."""
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def _rademacher_signs(rng, shape):
    """Rademacher signs of the given shape from rng: bit 0 is -1, bit 1 is +1."""
    return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0


def generate(spec, m):
    """Draw m examples from the generator described by spec."""
    if m < 1:
        raise ValueError(f"sample size must be positive, got {m}")
    rng = philox_generator(spec.seed)
    labels = _rademacher_signs(rng, m)
    noise = rng.standard_normal((m, spec.d))
    mean = np.zeros(spec.d)
    informative = spec.d - spec.irrelevant_dims if spec.kind is GeneratorKind.SPARSE_BLOBS else spec.d
    mean[:informative] = spec.mean_separation / (2.0 * math.sqrt(spec.d))
    features = labels[:, None] * mean[None, :] + spec.noise_sigma * noise
    return Dataset(features, labels)


_LABEL_TOKENS = {"-1": -1.0, "1": 1.0, "+1": 1.0}


def load_csv(path):
    """Read a dataset, enforcing the strict label policy.

    Errors name the offending row by its line number in the file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    rows = []
    line_numbers = []
    expected_d = None
    for line_no, line in enumerate(lines, start=1):
        if line.strip() == "":
            continue
        cells = [cell.strip() for cell in line.split(",")]
        if line_no == 1 and cells[0] == "label":
            continue
        token = cells[0]
        if token not in _LABEL_TOKENS:
            raise ValueError(
                f"row {line_no}: invalid label token {token!r} (expected -1, 1, or +1)"
            )
        if len(cells) < 2:
            raise ValueError(f"row {line_no}: no feature columns")
        if expected_d is None:
            expected_d = len(cells) - 1
        elif len(cells) - 1 != expected_d:
            raise ValueError(
                f"row {line_no}: expected {expected_d} features, got {len(cells) - 1}"
            )
        try:
            feats = [float(cell) for cell in cells[1:]]
        except ValueError as exc:
            raise ValueError(f"row {line_no}: non-numeric feature value ({exc})") from None
        rows.append((_LABEL_TOKENS[token], feats))
        line_numbers.append(line_no)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    labels = np.array([r[0] for r in rows])
    features = np.array([r[1] for r in rows])
    bad_row = _first_nonfinite_row(features)
    if bad_row is not None:
        raise ValueError(f"row {line_numbers[bad_row]}: non-finite feature value")
    return Dataset(features, labels)


def save_csv(data, path):
    """Write a dataset in the same layout load_csv reads.

    Floats are written in shortest round-trip decimal form, so a
    save/load cycle reproduces the dataset exactly.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for label, row in zip(data.labels, data.features):
            cells = [str(int(label))] + [repr(float(v)) for v in row]
            handle.write(",".join(cells) + "\n")


def _csv_cell(value):
    """One CSV cell: floats in shortest round-trip form, booleans as 0/1."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return str(int(value))
    return str(value)


def _write_json(doc, path=None):
    """Write doc with two-space indent and a final newline; stdout if no path.

    Strict JSON: a non-finite float raises ValueError, not a NaN token.
    """
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _require_fields(doc, fields, context):
    for field in fields:
        if not isinstance(doc, dict) or field not in doc:
            raise ValueError(f"{context} missing field {field!r}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value):
    return _is_int(value) and value > 0


def _is_number(value):
    # json.load reads the NaN and Infinity tokens as floats; they are no
    # number any field of ours can take.
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _is_numbers(values):
    return isinstance(values, list) and all(map(_is_number, values))


def _is_object(value):
    return isinstance(value, dict)


def _is_value_of(enum):
    return lambda value: value in [member.value for member in enum]


def _is_grid(check):
    # Each grid value names one cell; a repeated value would name it twice.
    return lambda values: (
        isinstance(values, list)
        and len(values) > 0
        and all(map(check, values))
        and len(set(values)) == len(values)
    )


def _checked(doc, checks, defaults, context, prefix=""):
    """doc with defaults filled in, once every field is present and well typed.

    checks holds (field, predicate, description) triples; missing fields are
    reported in their order.
    """
    _require_fields(doc, [field for field, _, _ in checks if field not in defaults], context)
    doc = {**defaults, **doc}
    for field, check, what in checks:
        if not check(doc[field]):
            raise ValueError(f"{prefix}{field} must be {what}, got {doc[field]!r}")
    return doc


def dataset_to_json_dict(data):
    return {
        "m": data.m,
        "d": data.d,
        "labels": [int(v) for v in data.labels],
        "features": [[float(v) for v in row] for row in data.features],
    }


def dataset_from_json_dict(doc):
    _require_fields(doc, ("labels", "features"), "dataset document")
    return Dataset(np.array(doc["features"], dtype=float), np.array(doc["labels"], dtype=float))
