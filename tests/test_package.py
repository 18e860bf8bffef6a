"""The package's lazy exports (PEP 562 `__getattr__` over the export table)."""

import importlib
import shutil

import pytest

import subwordkit


def test_every_export_is_its_defining_modules_object():
    for module, names in subwordkit._EXPORTS.items():
        mod = importlib.import_module(f"subwordkit.{module}")
        for name in names:
            value = getattr(subwordkit, name)
            assert value is getattr(mod, name), name
            if callable(value):
                # the table names where a function or class is defined, not a re-export
                assert value.__module__ in (mod.__name__, "builtins"), name


def test_kernel_backend_is_the_compiled_cone():
    # compiled wherever a C compiler is on the PATH, the pure fallback elsewhere
    from subwordkit import kernels
    backend = "compiled" if any(map(shutil.which, ("cc", "gcc", "clang"))) else "pure"
    assert subwordkit.KERNEL_BACKEND == kernels.ACTIVE == backend


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'subwordkit' has no attribute 'no_such_name'"):
        subwordkit.no_such_name
    assert not hasattr(subwordkit, "no_such_name")


def test_dir_lists_every_export():
    assert set(subwordkit.__all__) <= set(dir(subwordkit))
    assert len(subwordkit.__all__) == len(set(subwordkit.__all__))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from subwordkit import *", namespace)
    assert set(subwordkit.__all__) <= set(namespace)
    assert namespace["closure_dfa"] is subwordkit.closures.closure_dfa
    assert namespace["__version__"] == subwordkit.__version__
