"""Package-level tests: public exports, version, exception hierarchy."""

import pytest

import repro
from repro import exceptions


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__
        parts = repro.__version__.split(".")
        assert len(parts) >= 2
        assert all(part.isdigit() for part in parts)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} listed in __all__ but missing"

    def test_core_facade_exports(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), f"repro.core.{name} missing"

    def test_subpackage_facades(self):
        import repro.analysis
        import repro.baselines
        import repro.marketplace
        import repro.pgrid
        import repro.reputation
        import repro.simulation
        import repro.trust
        import repro.workloads

        for module in (
            repro.analysis,
            repro.baselines,
            repro.marketplace,
            repro.pgrid,
            repro.reputation,
            repro.simulation,
            repro.trust,
            repro.workloads,
        ):
            assert module.__all__
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"


class TestExceptionHierarchy:
    def test_all_exceptions_derive_from_repro_error(self):
        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is exceptions.ReproError:
                    continue
                assert issubclass(obj, exceptions.ReproError), name

    def test_storage_error_is_reputation_error(self):
        assert issubclass(exceptions.StorageError, exceptions.ReputationError)

    def test_catching_base_class_catches_domain_errors(self):
        from repro.core.goods import Good

        with pytest.raises(exceptions.ReproError):
            Good(good_id="x", supplier_cost=-1.0, consumer_value=1.0)

    def test_exceptions_have_docstrings(self):
        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert obj.__doc__, f"{name} has no docstring"


class TestDocstrings:
    def test_public_modules_documented(self):
        import importlib

        module_names = [
            "repro",
            "repro.core.goods",
            "repro.core.exchange",
            "repro.core.safety",
            "repro.core.planner",
            "repro.core.trust_aware",
            "repro.core.decision",
            "repro.core.gametheory",
            "repro.trust.beta",
            "repro.trust.complaint",
            "repro.reputation.reporting",
            "repro.pgrid.network",
            "repro.simulation.community",
            "repro.marketplace.protocol",
        ]
        for name in module_names:
            module = importlib.import_module(name)
            assert module.__doc__ and len(module.__doc__) > 40, name
