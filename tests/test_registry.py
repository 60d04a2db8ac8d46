"""Error paths and contracts of the component registries.

Covers the generic :class:`repro.registry.Registry` primitive (duplicate
names, unknown-name did-you-mean, deprecated aliases, validation,
unregister) and the wired seams: the built-in component tables and
:class:`MinerConfig` rejecting unregistered names per field.
"""

from __future__ import annotations

import pytest

from repro.core.config import MinerConfig
from repro.registry import (
    DEGRADATION_POLICIES,
    TIDSET_BACKENDS,
    UNCERTAINTY_MODELS,
    UNION_LOWER_BOUNDS,
    UNION_UPPER_BOUNDS,
    DuplicateComponentError,
    Registry,
    RegistryError,
    UnknownComponentError,
)


# ----------------------------------------------------------------------
# the generic primitive
# ----------------------------------------------------------------------
class TestRegistration:
    def test_register_and_get(self):
        registry = Registry("widget")
        widget = object()
        assert registry.register("plain", widget) is widget
        assert registry.get("plain") is widget
        assert registry.names() == ["plain"]
        assert "plain" in registry and len(registry) == 1

    def test_decorator_form(self):
        registry = Registry("widget")

        @registry.register("decorated")
        def build():
            return 42

        assert registry.get("decorated") is build

    def test_duplicate_name_rejected(self):
        registry = Registry("widget")
        registry.register("taken", object())
        with pytest.raises(DuplicateComponentError, match="duplicate widget name 'taken'"):
            registry.register("taken", object())

    def test_duplicate_via_alias_rejected_in_both_directions(self):
        registry = Registry("widget")
        registry.register("first", object(), aliases=("nick",))
        with pytest.raises(DuplicateComponentError, match="'nick'"):
            registry.register("nick", object())
        with pytest.raises(DuplicateComponentError, match="'first'"):
            registry.register("second", object(), aliases=("first",))

    def test_empty_name_rejected(self):
        registry = Registry("widget")
        with pytest.raises(RegistryError, match="non-empty"):
            registry.register("", object())
        with pytest.raises(RegistryError, match="non-empty"):
            registry.register("   ", object())

    def test_validator_rejects_at_registration_time(self):
        def only_callables(name, component):
            if not callable(component):
                raise RegistryError(f"widget {name!r} must be callable")

        registry = Registry("widget", validator=only_callables)
        with pytest.raises(RegistryError, match="must be callable"):
            registry.register("data", 123)
        assert "data" not in registry

    def test_unregister_removes_component_and_aliases(self):
        registry = Registry("widget")
        registry.register("gone", object(), aliases=("bye",))
        registry.unregister("gone")
        assert "gone" not in registry and "bye" not in registry
        with pytest.raises(UnknownComponentError):
            registry.unregister("gone")


class TestResolution:
    def test_unknown_name_lists_registered(self):
        registry = Registry("widget")
        registry.register("alpha", object())
        registry.register("beta", object())
        with pytest.raises(
            UnknownComponentError, match=r"unknown widget 'gamma' \(registered: alpha, beta\)"
        ):
            registry.get("gamma")

    def test_unknown_name_did_you_mean(self):
        registry = Registry("widget")
        registry.register("bitmap", object())
        with pytest.raises(UnknownComponentError, match="did you mean 'bitmap'"):
            registry.get("bitmp")

    def test_unknown_name_on_empty_registry(self):
        registry = Registry("widget")
        with pytest.raises(UnknownComponentError, match=r"\(registered: none\)"):
            registry.get("anything")

    def test_alias_resolves_silently(self):
        registry = Registry("widget")
        widget = object()
        registry.register("canonical", widget, aliases=("nick",))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert registry.get("nick") is widget
            assert registry.canonicalize("nick") == "canonical"

    def test_deprecated_alias_warns_with_canonical_spelling(self):
        registry = Registry("widget")
        widget = object()
        registry.register("modern", widget, deprecated_aliases=("legacy",))
        with pytest.warns(DeprecationWarning, match="'legacy' is deprecated; use 'modern'"):
            assert registry.get("legacy") is widget

    def test_names_excludes_aliases_and_is_sorted(self):
        registry = Registry("widget")
        registry.register("zeta", object(), aliases=("z",))
        registry.register("alpha", object())
        assert registry.names() == ["alpha", "zeta"]
        assert registry.aliases() == {"z": "zeta"}
        assert list(registry) == ["alpha", "zeta"]


# ----------------------------------------------------------------------
# the wired seams
# ----------------------------------------------------------------------
class TestBuiltinTables:
    def test_expected_builtins_are_registered(self):
        assert TIDSET_BACKENDS.names() == ["bitmap", "tuple"]
        assert UNCERTAINTY_MODELS.names() == ["attribute", "tuple"]
        assert UNION_LOWER_BOUNDS.names() == ["dawson_sankoff", "de_caen"]
        assert UNION_UPPER_BOUNDS.names() == ["boole", "kwerel"]
        assert DEGRADATION_POLICIES.names() == ["always-approx", "budget-deadline", "never"]

    def test_model_aliases(self):
        assert UNCERTAINTY_MODELS.canonicalize("tuple-level") == "tuple"
        assert UNCERTAINTY_MODELS.canonicalize("attribute-level") == "attribute"
        with pytest.warns(DeprecationWarning, match="use 'attribute'"):
            assert UNCERTAINTY_MODELS.canonicalize("item") == "attribute"

    def test_deprecated_default_policy_alias(self):
        with pytest.warns(DeprecationWarning, match="use 'budget-deadline'"):
            assert DEGRADATION_POLICIES.canonicalize("default") == "budget-deadline"

    def test_model_surface_validator_rejects_incomplete_models(self):
        with pytest.raises(RegistryError, match="lacks callable attribute"):
            UNCERTAINTY_MODELS.register("hollow", object())
        assert "hollow" not in UNCERTAINTY_MODELS


class TestMinerConfigIntegration:
    def test_unregistered_backend_rejected(self):
        with pytest.raises(UnknownComponentError, match="unknown tidset backend 'roaring'"):
            MinerConfig(min_sup=2, tidset_backend="roaring")

    def test_unregistered_bounds_rejected_with_suggestions(self):
        with pytest.raises(UnknownComponentError, match="did you mean 'de_caen'"):
            MinerConfig(min_sup=2, lower_bound="de_cean")
        with pytest.raises(UnknownComponentError, match="unknown union upper bound"):
            MinerConfig(min_sup=2, upper_bound="hunter")

    def test_unregistered_policy_rejected(self):
        with pytest.raises(UnknownComponentError, match="unknown degradation policy"):
            MinerConfig(min_sup=2, degradation_policy="sometimes")

    def test_config_canonicalizes_deprecated_policy_alias(self):
        with pytest.warns(DeprecationWarning):
            config = MinerConfig(min_sup=2, degradation_policy="default")
        assert config.degradation_policy == "budget-deadline"

    def test_registered_demo_policy_is_usable_by_name(self):
        DEGRADATION_POLICIES.register("demo-noop", lambda config, stats, n: None)
        try:
            config = MinerConfig(min_sup=2, degradation_policy="demo-noop")
            assert config.degradation_policy == "demo-noop"
        finally:
            DEGRADATION_POLICIES.unregister("demo-noop")
        with pytest.raises(UnknownComponentError):
            MinerConfig(min_sup=2, degradation_policy="demo-noop")
