"""API stability: the documented public surface must exist and import.

Guards against accidental breaks of the names README/DESIGN promise —
the contract a downstream user of this library programs against.
"""

import importlib

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.calibration",
    "repro.errors",
    "repro.util",
    "repro.sim",
    "repro.obs",
    "repro.cluster",
    "repro.rpc",
    "repro.kvstore",
    "repro.objectstore",
    "repro.baselines",
    "repro.core",
    "repro.core.recovery",
    "repro.core.chunk_store",
    "repro.core.shared_cache",
    "repro.core.meta",
    "repro.tools",
    "repro.tools.dlcmd",
    "repro.dlt",
    "repro.dlt.sweep",
    "repro.workloads",
    "repro.bench",
    "repro.bench.experiments",
    "repro.bench.runner",
    "repro.bench.setups",
]


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_module_imports(module):
    importlib.import_module(module)


def test_top_level_all_resolves():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_table3_api_surface():
    """Every Table 3 operation exists on the client (by its library name)."""
    from repro.core.client import DieselClient, connect

    for method in ("put", "flush", "get", "stat", "delete", "ls",
                   "save_meta", "load_meta", "enable_shuffle", "close",
                   "purge", "delete_dataset", "get_range", "put_overwrite"):
        assert callable(getattr(DieselClient, method)), method
    assert callable(connect)  # DL_connect


def test_experiment_registry_covers_every_artifact():
    from repro.bench.experiments import ALL_EXPERIMENTS

    assert set(ALL_EXPERIMENTS) == {
        "table2", "fig6", "fig9", "fig10a", "fig10b", "fig10c",
        "fig11a", "fig11b", "fig12", "fig13", "fig14", "fig15",
        "prefetch", "ingest", "fanout", "latency", "faults",
        "locality", "scale", "sharing", "capacity", "metaplane",
    }


def test_version():
    import repro

    assert repro.__version__ == "1.10.0"


def test_docstrings_on_public_modules():
    for module in PUBLIC_MODULES:
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20, module
