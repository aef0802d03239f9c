"""The package root: its ``__all__`` is the modules' own lists, each public
name once, names that left the package stay gone, and an offspring law takes
only its values."""

from __future__ import annotations

import importlib
import inspect

import pytest

import looptrees

MODULES = ("dissection", "excursion_metric", "gw_tree", "layout", "looptree",
           "metric_analysis", "stable_law")


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from looptrees import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(looptrees.__all__)


def test_all_names_resolve_once():
    names = looptrees.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(looptrees, name), name


def test_root_all_is_the_module_lists():
    want = ["__version__"]
    for mod in MODULES:
        module = importlib.import_module(f"looptrees.{mod}")
        for name in module.__all__:
            assert getattr(looptrees, name) is getattr(module, name)
        want += module.__all__
    assert looptrees.__all__ == want
    assert "TreeStats" in looptrees.__all__


@pytest.mark.parametrize("name", [
    "FiniteMetric", "bfs_metric", "gh_upper_bound", "circle_metric",
    "tree_metric", "crt_comparator", "levy_tail", "max_jump",
])
def test_removed_names_are_gone(name):
    assert not hasattr(looptrees, name)


def test_a_law_takes_only_its_values():
    # forbids_unary and tail_constant are worked out from the atoms
    params = inspect.signature(looptrees.OffspringLaw).parameters
    assert "forbids_unary" not in params and "tail_constant" not in params
    finite = inspect.signature(looptrees.OffspringLaw.from_probabilities)
    assert list(finite.parameters) == ["probabilities"]
