"""API hygiene: public surface is importable, documented, and consistent."""

import importlib
import inspect
import pkgutil

import pytest

import repro
from benchmarks.e2e.layers import LAYER_FUNCTIONS

PACKAGES = [
    "repro",
    "repro.stats",
    "repro.netmodel",
    "repro.protocols",
    "repro.flows",
    "repro.booter",
    "repro.vantage",
    "repro.domains",
    "repro.core",
    "repro.scenario",
    "repro.experiments",
    "repro.economics",
    "repro.mitigation",
    "repro.honeypot",
    "repro.obs",
    "repro.serve",
]


def _walk_modules():
    seen = []
    for name in PACKAGES:
        module = importlib.import_module(name)
        seen.append(module)
        if hasattr(module, "__path__"):
            for info in pkgutil.iter_modules(module.__path__):
                seen.append(importlib.import_module(f"{name}.{info.name}"))
    return {m.__name__: m for m in seen}


MODULES = _walk_modules()


class TestImportsAndDocs:
    @pytest.mark.parametrize("name", sorted(MODULES))
    def test_module_has_docstring(self, name):
        assert MODULES[name].__doc__, f"{name} lacks a module docstring"

    @pytest.mark.parametrize("name", sorted(MODULES))
    def test_all_names_resolve(self, name):
        module = MODULES[name]
        exported = getattr(module, "__all__", [])
        for symbol in exported:
            assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"

    @pytest.mark.parametrize("name", sorted(MODULES))
    def test_public_callables_documented(self, name):
        module = MODULES[name]
        exported = getattr(module, "__all__", [])
        for symbol in exported:
            obj = getattr(module, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                # Only check objects defined in this package.
                if getattr(obj, "__module__", "").startswith("repro"):
                    assert inspect.getdoc(obj), f"{name}.{symbol} lacks a docstring"


class TestBenchmarkLayerNames:
    """The end-to-end benchmark wraps these functions by name; a refactor
    that drops or renames one must fail here, not in the traced run."""

    @pytest.mark.parametrize("layer,module_name,qualname", LAYER_FUNCTIONS)
    def test_wrapped_function_resolves(self, layer, module_name, qualname):
        owner = importlib.import_module(module_name)
        for attr in qualname.split("."):
            owner = inspect.getattr_static(owner, attr)
        assert callable(getattr(owner, "__func__", owner)), (layer, module_name, qualname)


class TestVersion:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_top_level_exports(self):
        assert repro.Scenario is not None
        assert repro.FlowTable is not None


class TestTrustedConstructorGuards:
    """``FlowTable._from_validated`` skips casting, not misuse detection.

    The trusted path exists for internal call sites (builder, concat,
    filter) that guarantee schema-exact columns; handing it anything else
    must fail loudly instead of producing a corrupt table.
    """

    def _schema_columns(self, n=4):
        import numpy as np

        from repro.flows.records import SCHEMA

        return {name: np.zeros(n, dtype=dt) for name, dt in SCHEMA.items()}

    def test_accepts_schema_exact_columns(self):
        from repro.flows.records import FlowTable

        table = FlowTable._from_validated(self._schema_columns())
        assert len(table) == 4

    def test_rejects_missing_column(self):
        from repro.flows.records import FlowTable

        cols = self._schema_columns()
        del cols["peer_asn"]
        with pytest.raises(ValueError, match="peer_asn"):
            FlowTable._from_validated(cols)

    def test_rejects_wrong_dtype(self):
        import numpy as np

        from repro.flows.records import FlowTable

        cols = self._schema_columns()
        cols["packets"] = cols["packets"].astype(np.int32)
        with pytest.raises(ValueError, match="packets"):
            FlowTable._from_validated(cols)

    def test_rejects_misaligned_lengths(self):
        from repro.flows.records import FlowTable

        cols = self._schema_columns()
        cols["bytes"] = cols["bytes"][:-1]
        with pytest.raises(ValueError, match="bytes"):
            FlowTable._from_validated(cols)

    def test_rejects_non_ndarray(self):
        from repro.flows.records import FlowTable

        cols = self._schema_columns()
        cols["time"] = list(cols["time"])
        with pytest.raises(ValueError, match="time"):
            FlowTable._from_validated(cols)

    def test_rejects_extra_column(self):
        import numpy as np

        from repro.flows.records import FlowTable

        cols = self._schema_columns()
        cols["ttl"] = np.zeros(4)
        with pytest.raises(ValueError, match="unknown"):
            FlowTable._from_validated(cols)

    def test_rejects_2d_column(self):
        from repro.flows.records import FlowTable

        cols = self._schema_columns(4)
        cols["time"] = cols["time"].reshape(2, 2)
        with pytest.raises(ValueError, match="time"):
            FlowTable._from_validated(cols)
