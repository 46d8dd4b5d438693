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

__all__ = ["Dataset", "GeneratorKind", "GeneratorSpec", "generate", "load_csv", "save_csv"]


class GeneratorKind(str, Enum):
    TWO_GAUSSIANS = "two_gaussians"
    SPARSE_BLOBS = "sparse_blobs"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled sample: features (m, d) float64, labels (m,) valued in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.ascontiguousarray(_finite_rows("features", self.features))
        labels = np.asarray(self.labels, dtype=float)
        if features.shape[0] < 1 or features.shape[1] < 1:
            raise ValueError(f"dataset needs at least one row and one column, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} does not match {features.shape[0]} rows"
            )
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


# One rule per kind of array input, each raising ValueError that names the
# input: sample rows and vectors here, square matrices in
# norms.require_symmetric, which builds on _finite_rows.
def _finite_rows(name, value):
    """value as a float matrix, without a copy where it is one already, once
    it is 2-d and finite; a row holding a NaN or an infinity is named by
    its index."""
    rows = np.asarray(value, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {rows.shape}")
    bad_row = _first_nonfinite_row(rows)
    if bad_row is not None:
        raise ValueError(f"{name} must be finite; row {bad_row} (counting from 0) is not")
    return rows


def _finite_vector(name, value):
    """A float copy of value, once it is a nonempty vector of finite entries."""
    value = np.array(value, dtype=float)
    if value.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {value.shape}")
    if not value.size:
        raise ValueError(f"{name} must be a nonempty vector, got shape {value.shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite")
    return value


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
        object.__setattr__(self, "kind", GeneratorKind(_require("kind", self.kind, _GENERATOR_KIND)))
        _require("d", self.d, _COUNT)
        _require("mean_separation", self.mean_separation, _NUMBER)
        _require("noise_sigma", self.noise_sigma, _POSITIVE)
        _require("irrelevant_dims", self.irrelevant_dims, _NONNEGATIVE_INT)
        if self.kind is GeneratorKind.SPARSE_BLOBS and self.irrelevant_dims >= self.d:
            raise ValueError(
                f"irrelevant_dims must be below d for sparse blobs, got {self.irrelevant_dims} with d={self.d}"
            )
        if self.kind is GeneratorKind.TWO_GAUSSIANS and self.irrelevant_dims != 0:
            raise ValueError(
                f"irrelevant_dims must be 0 for two_gaussians, got {self.irrelevant_dims}"
            )
        _require("seed", self.seed, _SEED)


def philox_generator(seed):
    """Philox counter-based generator keyed by seed, counter at zero."""
    return np.random.Generator(np.random.Philox(key=_require("seed", seed, _SEED)))


def _rademacher_signs(rng, shape):
    """Rademacher signs of the given shape from rng: bit 0 is -1, bit 1 is +1."""
    return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0


def generate(spec, m):
    """Draw m examples from the generator described by spec."""
    _require("m", m, _COUNT)
    rng = philox_generator(spec.seed)
    labels = _rademacher_signs(rng, m)
    noise = rng.standard_normal((m, spec.d))
    mean = np.zeros(spec.d)
    informative = spec.d - spec.irrelevant_dims if spec.kind is GeneratorKind.SPARSE_BLOBS else spec.d
    mean[:informative] = spec.mean_separation / (2.0 * math.sqrt(spec.d))
    # sigma * noise + y_i mu_k, formed in the noise buffer: the same
    # products and sums as labels[:, None] * mean[None, :] + sigma * noise
    # (both operations commute), with no m x d temporary.  The products
    # y_i mu_k are formed d x m and transposed, without numpy's slow
    # broadcast of a column by a row.
    noise *= spec.noise_sigma
    noise += (mean[:, None] * labels).T
    return Dataset(noise, labels)


_LABEL_TOKENS = {"-1": -1.0, "1": 1.0, "+1": 1.0}


def load_csv(path):
    """Read a dataset, enforcing the strict label policy.

    Errors name the offending row by its line number in the file, and a
    file that is not UTF-8 by its path.  A UTF-8 byte-order mark at the
    start of the file, as spreadsheet exports write one, is skipped.
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            lines = handle.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
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
    # The decoder's errors say where in the file, not which file: a CLI
    # command reads up to three.
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value):
    # Counts size numpy arrays, whose dimensions are int64.
    return _is_int(value) and 0 < value < 2 ** 63


def _is_number(value):
    # json.load reads the NaN and Infinity tokens as floats, and digits of
    # any length as an int; neither a non-finite float nor an int beyond the
    # float range is a number any field of ours can take.
    try:
        return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:
        return False


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


# One rule per kind of value: a predicate and the phrase that names it.  No
# rule converts the value it checks.
_NUMBER = (_is_number, "a finite number")
_POSITIVE = (lambda value: _is_number(value) and value > 0, "positive and finite")
_NONNEGATIVE = (lambda value: _is_number(value) and value >= 0, "nonnegative and finite")
_PROBABILITY = (lambda value: _is_number(value) and 0 < value < 1, "in (0, 1)")
_INT = (_is_int, "an int")
_COUNT = (_is_count, "a positive int below 2**63")
_NONNEGATIVE_INT = (lambda value: _is_int(value) and value >= 0, "a nonnegative int")
# philox_generator keys a Philox stream with any int in this range.
_SEED = (lambda value: _is_int(value) and 0 <= value < 2 ** 128, "an int in [0, 2**128)")


def _list_of(element_rule, phrase):
    """The rule for a list whose elements all meet element_rule; it carries
    that rule third, so that a message can name the first bad element."""
    check = element_rule[0]
    return (lambda value: isinstance(value, list) and all(map(check, value)), phrase, element_rule)


_NUMBERS = _list_of(_NUMBER, "a list of finite numbers")
_NUMBER_ROWS = _list_of(_NUMBERS, "a list of lists of finite numbers")
_OBJECT = (lambda value: isinstance(value, dict), "an object")
_GENERATOR_KIND = (_is_value_of(GeneratorKind), "a generator kind")


def _require(name, value, rule):
    """value, once it satisfies rule; a ValueError naming name otherwise.

    A list that a list rule refuses is not printed whole: the message names
    its first bad element by index, as name[i] or name[i][j].
    """
    check, phrase, *_ = rule
    if not check(value):
        path, bad = _first_bad(value, rule)
        where = f"{name}{path} = " if path else ""
        raise ValueError(f"{name} must be {phrase}, got {where}{bad!r}")
    return value


def _first_bad(value, rule, path=""):
    """The index path of value's first element that breaks a list rule's
    element rule, followed down nested lists, and that element; ("", value)
    where there is none."""
    if len(rule) > 2 and isinstance(value, list):
        element_rule = rule[2]
        for index, element in enumerate(value):
            if not element_rule[0](element):
                return _first_bad(element, element_rule, f"{path}[{index}]")
    return path, value


def _checked(doc, fields, defaults, context, prefix=""):
    """doc with defaults filled in, once it is an object holding every field.

    fields is a document's table, one row per field: its name, the rule its
    value must meet and, in a document simbound writes, how the object
    produces the value.  Missing fields are reported in row order.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{context} must be an object, got {type(doc).__name__}")
    for name, *_ in fields:
        if name not in doc and name not in defaults:
            raise ValueError(f"{context} missing field {name!r}")
    doc = {**defaults, **doc}
    for name, rule, *_ in fields:
        _require(prefix + name, doc[name], rule)
    return doc


# The dataset document's fields (see _checked).
_DATASET_FIELDS = (
    ("m", _COUNT, lambda data: data.m),
    ("d", _COUNT, lambda data: data.d),
    ("labels", _NUMBERS, lambda data: [int(v) for v in data.labels]),
    ("features", _NUMBER_ROWS, lambda data: data.features.tolist()),
)


def dataset_to_json_dict(data):
    return {name: value(data) for name, _, value in _DATASET_FIELDS}


def dataset_from_json_dict(doc):
    doc = _checked(doc, _DATASET_FIELDS, {}, "dataset document")
    m, d, labels, features = doc["m"], doc["d"], doc["labels"], doc["features"]
    if len(labels) != m or len(features) != m or any(len(row) != d for row in features):
        raise ValueError(f"labels and features must be m = {m} labels and rows of d = {d} numbers")
    return Dataset(features, labels)
