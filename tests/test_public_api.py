"""``releasesim.__all__`` against what ``releasesim/__init__.py`` binds: a
name retired from one of the two lists must go from the other as well."""

import inspect

import releasesim


def test_all_lists_each_public_name_once_and_only_names_that_resolve():
    names = releasesim.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(releasesim, name)] == []
    bound = {name for name, value in vars(releasesim).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(bound - set(names)) == []


def test_the_layer_evaluators_are_retired_for_the_per_field_ones():
    for name in ("eval_matrix", "eval_tissue"):
        assert not hasattr(releasesim, name) and name not in releasesim.__all__
    assert {"matrix_free", "matrix_solid", "tissue_free", "tissue_bound",
            "tissue_internalized"} <= set(releasesim.__all__)
