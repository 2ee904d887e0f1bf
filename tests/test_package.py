"""The package namespace re-exports every module's public names."""

import importlib

import kmajority

MODULES = ("meanfield", "graph", "dynamics", "experiments")


def test_package_exports_every_module_all():
    public = set(dir(kmajority))
    for name in MODULES:
        missing = set(importlib.import_module(f"kmajority.{name}").__all__) - public
        assert not missing, (name, sorted(missing))
