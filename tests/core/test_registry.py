"""Tests for the policy registry (repro.core.registry).

The registry is the single dispatch authority: every engine, the sweep
cache, and the CLI consult :class:`PolicyDescriptor` kernels
(:func:`registry.has_kernel`) and config round-trips instead of
type-switching on policy classes.
"""

import pickle

import pytest

from repro.core import registry
from repro.core.dbdp import DBDPPolicy
from repro.core.dcf import DCFPolicy
from repro.core.dp_protocol import ConstantSwapBias, DPProtocol
from repro.core.eldf import ELDFPolicy, LDFPolicy
from repro.core.estimation import EstimatedDBDPPolicy
from repro.core.fcsma import FCSMAPolicy
from repro.core.frame_csma import FrameCSMAPolicy
from repro.core.policies import IntervalMac
from repro.core.registry import PolicyDescriptor
from repro.core.round_robin import RoundRobinPolicy
from repro.core.static_priority import StaticPriorityPolicy

BUILTIN_NAMES = (
    "DB-DP",
    "DCF",
    "DP",
    "ELDF",
    "FCSMA",
    "FrameCSMA",
    "LDF",
    "RoundRobin",
    "StaticPriority",
)


class _ToyPolicy(IntervalMac):
    """Unregistered stand-in for registration tests."""

    name = "Toy"

    def run_interval(self, k, arrivals, positive_debts, rng):  # pragma: no cover
        raise NotImplementedError


def _toy_descriptor(name="Toy", policy_class=_ToyPolicy):
    return PolicyDescriptor(
        name=name,
        policy_class=policy_class,
        to_config=lambda p: {},
        from_config=lambda config: policy_class(),
    )


# ----------------------------------------------------------------------
# Registration and lookup
# ----------------------------------------------------------------------
def test_available_lists_builtins_sorted():
    assert registry.available() == BUILTIN_NAMES


def test_get_unknown_name_lists_available():
    with pytest.raises(KeyError, match="DB-DP"):
        registry.get("NoSuchPolicy")


def test_register_enforces_unique_names():
    registry.register(_toy_descriptor())
    try:
        class Other(IntervalMac):
            name = "Other"

            def run_interval(self, k, arrivals, positive_debts, rng):
                raise NotImplementedError  # pragma: no cover

        with pytest.raises(ValueError, match="already registered"):
            registry.register(_toy_descriptor(policy_class=Other))
    finally:
        registry.unregister("Toy")


def test_register_enforces_unique_classes():
    registry.register(_toy_descriptor())
    try:
        with pytest.raises(ValueError, match="already registered"):
            registry.register(_toy_descriptor(name="Toy2"))
    finally:
        registry.unregister("Toy")


def test_reregistering_same_pair_is_noop():
    first = registry.register(_toy_descriptor())
    try:
        again = registry.register(_toy_descriptor())
        assert again is first
    finally:
        registry.unregister("Toy")


def test_unregister_removes_name_and_class():
    registry.register(_toy_descriptor())
    registry.unregister("Toy")
    assert "Toy" not in registry.available()
    assert registry.descriptor_for(_ToyPolicy) is None


# ----------------------------------------------------------------------
# Descriptor validation
# ----------------------------------------------------------------------
def test_factory_defaults_to_policy_class():
    descriptor = _toy_descriptor()
    assert descriptor.factory is _ToyPolicy


# ----------------------------------------------------------------------
# MRO resolution
# ----------------------------------------------------------------------
def test_descriptor_for_exact_classes():
    for name in BUILTIN_NAMES:
        descriptor = registry.get(name)
        instance_source = descriptor.factory
        if instance_source is None:  # "DP" needs an explicit bias
            continue
        assert registry.descriptor_for(instance_source()) is descriptor


def test_subclass_resolves_to_nearest_ancestor():
    # EstimatedDBDPPolicy has no descriptor of its own: it inherits
    # DB-DP's batch kernel and cache semantics via the MRO walk.
    descriptor = registry.descriptor_for(EstimatedDBDPPolicy())
    assert descriptor is registry.get("DB-DP")


def test_unregistered_policy_resolves_to_none():
    assert registry.descriptor_for(_ToyPolicy()) is None
    assert registry.policy_config(_ToyPolicy()) is None


def test_policy_label_uses_registered_name_for_exact_class():
    assert registry.policy_label(DBDPPolicy()) == "DB-DP"
    assert registry.policy_label(LDFPolicy()) == "LDF"


def test_policy_label_falls_back_for_subclasses():
    # Subclass variants keep their own reporting name so their sweep
    # curves stay distinguishable from the parent family's.
    assert registry.policy_label(EstimatedDBDPPolicy()) == "DB-DP(est)"


# ----------------------------------------------------------------------
# Config round-trips (every builtin descriptor)
# ----------------------------------------------------------------------
EXEMPLARS = {
    "DB-DP": lambda: DBDPPolicy(glauber_r=5.0, num_pairs=2),
    "DCF": lambda: DCFPolicy(),
    "DP": lambda: DPProtocol(bias=ConstantSwapBias(0.5)),
    "ELDF": lambda: ELDFPolicy(),
    "FCSMA": lambda: FCSMAPolicy(),
    "FrameCSMA": lambda: FrameCSMAPolicy(),
    "LDF": lambda: LDFPolicy(),
    "RoundRobin": lambda: RoundRobinPolicy(),
    "StaticPriority": lambda: StaticPriorityPolicy(
        priorities=list(range(1, 21))[::-1]
    ),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_config_round_trip(name):
    descriptor = registry.get(name)
    policy = EXEMPLARS[name]()
    config = descriptor.config_of(policy)
    rebuilt = descriptor.from_config(config)
    assert type(rebuilt) is descriptor.policy_class
    assert descriptor.config_of(rebuilt) == config


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_configs_survive_json_via_cache_fingerprint(name):
    import json

    config = registry.get(name).config_of(EXEMPLARS[name]())
    assert json.loads(json.dumps(config)) == config


def test_create_by_name():
    policy = registry.create("DB-DP")
    assert type(policy) is DBDPPolicy


def test_create_rejects_factoryless_family_without_config():
    with pytest.raises(TypeError, match="no default factory"):
        registry.create("DP")


def test_create_with_config():
    config = registry.get("DP").config_of(DPProtocol(bias=ConstantSwapBias(0.25)))
    policy = registry.create("DP", config)
    assert type(policy) is DPProtocol
    assert registry.get("DP").config_of(policy) == config


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def test_scalar_only_families_declare_no_kernel():
    for name in ("DCF", "FCSMA", "FrameCSMA"):
        descriptor = registry.get(name)
        assert descriptor.batch_kernel is None
        assert not registry.has_kernel(EXEMPLARS[name]())


def test_batchable_families_expose_kernels():
    for name in ("DB-DP", "DP", "ELDF", "LDF", "RoundRobin", "StaticPriority"):
        descriptor = registry.get(name)
        assert descriptor.batch_kernel is not None
        assert registry.has_kernel(EXEMPLARS[name]())


def test_make_kernel_rejects_scalar_only_policies():
    with pytest.raises(TypeError, match="no batch kernel"):
        registry.make_kernel(FCSMAPolicy())


def test_kernel_family_shared_within_dp_family():
    assert registry.same_kernel_family(DBDPPolicy(), DPProtocol(bias=ConstantSwapBias(0.5)))
    assert registry.same_kernel_family(LDFPolicy(), ELDFPolicy())
    assert not registry.same_kernel_family(DBDPPolicy(), LDFPolicy())
    assert not registry.same_kernel_family(DBDPPolicy(), FCSMAPolicy())


# ----------------------------------------------------------------------
# resolve_policies
# ----------------------------------------------------------------------
def test_resolve_policies_from_names():
    resolved = registry.resolve_policies(("DB-DP", "LDF"))
    assert resolved == {"DB-DP": DBDPPolicy, "LDF": LDFPolicy}


def test_resolve_policies_mapping_passthrough_and_name_values():
    factory = lambda: DBDPPolicy(glauber_r=5.0)  # noqa: E731
    resolved = registry.resolve_policies({"custom": factory, "baseline": "LDF"})
    assert resolved == {"custom": factory, "baseline": LDFPolicy}


def test_resolve_policies_rejects_factoryless_names():
    with pytest.raises(TypeError, match="no default factory"):
        registry.resolve_policies(("DP",))


def test_resolved_name_factories_are_picklable():
    resolved = registry.resolve_policies(("DB-DP", "LDF", "FCSMA", "DCF"))
    assert pickle.loads(pickle.dumps(resolved)) == resolved
