"""Each JSON document simbound writes and reads back is stated by one field
table: every field the writer emits is checked by the loader, and the
README's field lists are the tables'.  Likewise each public name is stated
once, in the ``__all__`` of the module that defines it, and the README's
Python API lists are those."""

import dataclasses
import json
import pathlib
import re

import pytest

import simbound
from simbound import BoundReport, SimilarityConfig, load_separator, train_separator, train_similarity
from simbound.data import _DATASET_FIELDS, _write_json, dataset_from_json_dict, dataset_to_json_dict
from simbound.separator import _SEPARATOR_FIELDS, separator_to_json_dict
from simbound.similarity import _MODEL_FIELDS, model_from_json_dict, model_to_json_dict
from conftest import make_rng, random_dataset

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

TABLES = {"dataset": _DATASET_FIELDS, "model": _MODEL_FIELDS, "separator": _SEPARATOR_FIELDS}


def _documents(tmp_path):
    """Per document: one written by its writer, and its loader's round trip
    back to a document."""
    data = random_dataset(make_rng(601), m=6, d=3)
    model = train_similarity(data, SimilarityConfig(lam=0.2, margin=0.8, norm_kind="mixed21",
                                                    max_iters=60))
    path = tmp_path / "separator.json"

    def separator_round_trip(doc):
        _write_json(doc, path)
        return separator_to_json_dict(load_separator(path))

    return {
        "dataset": (dataset_to_json_dict(data),
                    lambda doc: dataset_to_json_dict(dataset_from_json_dict(doc))),
        "model": (model_to_json_dict(model), lambda doc: model_to_json_dict(model_from_json_dict(doc))),
        "separator": (separator_to_json_dict(train_separator(model, data, max_iters=60)),
                      separator_round_trip),
    }


def _text(doc):
    return json.dumps(doc, indent=2, allow_nan=False)


@pytest.mark.parametrize("document, field", [
    (document, row[0]) for document, table in TABLES.items() for row in table
])
def test_every_field_is_checked_on_load(tmp_path, document, field):
    written, round_trip = _documents(tmp_path)[document]
    assert _text(round_trip(json.loads(_text(written)))) == _text(written)
    dropped = {name: value for name, value in written.items() if name != field}
    with pytest.raises(ValueError, match=f"missing field '{field}'$"):
        round_trip(dropped)
    for wrong in ("1", True):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            round_trip({**written, field: wrong})


def _readme_field_lists():
    """Each "<document> JSON ... has exactly these fields:" list of File formats."""
    section = README.read_text(encoding="utf-8").split("\n## File formats\n")[1].split("\n## ")[0]
    found = re.findall(r"^(\w[\w ]*?) JSON\b[^\n]*?has exactly these fields:\n\n```\n(.*?)```",
                       section, re.MULTILINE | re.DOTALL)
    return {document: re.split(r",\s*", names.strip()) for document, names in found}


def test_readme_field_lists_are_the_tables():
    report_fields = ["lambda" if field.name == "lam" else field.name
                     for field in dataclasses.fields(BoundReport)]
    assert _readme_field_lists() == {
        "Dataset": [row[0] for row in _DATASET_FIELDS],
        "Model": [row[0] for row in _MODEL_FIELDS],
        "Separator": [row[0] for row in _SEPARATOR_FIELDS],
        "Bound report": report_fields,
    }


def _readme_api_lists():
    """Each "- `simbound.<module>` ...: `name`, ..." list of the Python API."""
    section = README.read_text(encoding="utf-8").split("\n## Python API\n")[1].split("\n## ")[0]
    found = re.findall(r"^- `simbound\.(\w+)`[^:\n]*:(.*?)(?=\n- |\n\n)",
                       section, re.MULTILINE | re.DOTALL)
    return [(module, re.findall(r"`(\w+)`", names)) for module, names in found]


def test_each_public_name_has_one_owner():
    modules = [simbound.data, simbound.norms, simbound.similarity, simbound.separator,
               simbound.bounds, simbound.errors]
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert simbound.__all__ == names
    for module in modules:
        for name in module.__all__:
            # An alias such as true_hinge_error names a function of its own
            # module, and the package re-exports the module's object.
            assert getattr(module, name).__module__ == module.__name__, name
            assert getattr(simbound, name) is getattr(module, name), name
    assert _readme_api_lists() == [(module.__name__.split(".")[1], module.__all__)
                                   for module in modules]
