"""Run the docstring examples of every crepant module."""

import doctest
import importlib
import pkgutil

import crepant


def test_docstring_examples():
    names = ["crepant"] + [f"crepant.{m.name}"
                           for m in pkgutil.iter_modules(crepant.__path__)]
    results = {name: doctest.testmod(importlib.import_module(name))
               for name in names}
    assert [name for name, r in results.items() if r.failed] == []
    # beta_pairing, cr_table, cup_table, qc_table, Cyclotomic.from_json, ...
    assert sum(r.attempted for r in results.values()) >= 12
