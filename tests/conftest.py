import numpy as np
import pytest

from simbound import Dataset, norm, similarity_objective


def make_rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def symmetric_part(b):
    """(B + B^T) / 2, the symmetric part of a square matrix."""
    return (b + b.T) / 2.0


def random_dataset(rng, m, d, separation=2.0, noise=0.5):
    """Two linearly separated clusters with Gaussian noise."""
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    labels = np.where(rng.integers(0, 2, size=m) == 1, 1.0, -1.0)
    features = labels[:, None] * (separation / 2.0) * direction[None, :]
    features = features + noise * rng.standard_normal((m, d))
    return Dataset(features, labels)


def assert_model_invariants(model, data):
    """The two feasibility facts every trained model must satisfy."""
    kind = model.config.norm_kind
    assert norm(model.matrix, kind) <= 1.0 / model.config.lam + 1e-9
    obj = similarity_objective(model.matrix, data, model.config)
    assert obj <= 1.0 + 1e-9
    assert abs(obj - model.final_objective) <= 1e-12


@pytest.fixture
def rng():
    return make_rng(20260817)
