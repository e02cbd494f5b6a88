import importlib

import pytest

import freeconv

REMOVED = ("SubordinationSolution", "g_free", "g_free_grid", "weighted_sum_g",
           "k_transform_series", "CumulantSequence", "f_transform")


def test_all_names_resolve_once():
    assert len(freeconv.__all__) == len(set(freeconv.__all__))
    for name in freeconv.__all__:
        getattr(freeconv, name)


@pytest.mark.parametrize("module", ["freeconv", "freeconv.subordination",
                                    "freeconv.cumulants", "freeconv.complexfn"])
@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("name", ["to_json_dict", "from_json_dict"])
def test_measure_json_helpers_are_folded(name):
    assert not hasattr(freeconv.Measure, name)
