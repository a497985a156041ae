import math

import numpy as np
import pytest

from bbsim.platform import (
    ConfigurationError,
    LogNormalModel,
    PlatformConfig,
    build_platform,
    expected_bb_capacity,
)


def test_default_platform_roles():
    p = build_platform(PlatformConfig())
    assert len(p.compute_nodes) == 96
    storage = tuple(p.bb_capacity_per_node)
    assert len(storage) == 12
    assert set(p.compute_nodes).isdisjoint(storage)
    # one storage node per chassis (9 nodes each), last node of the chassis
    assert storage == tuple((i + 1) * 9 - 1 for i in range(12))


def test_build_is_deterministic():
    cfg = PlatformConfig()
    assert build_platform(cfg) == build_platform(cfg)


def test_no_storage_cluster():
    cfg = PlatformConfig(
        n_compute_nodes=4,
        n_storage_nodes=0,
        groups=1,
        chassis_per_group=1,
        routers_per_chassis=1,
        nodes_per_router=4,
        bb_capacity_total=0,
    )
    p = build_platform(cfg)
    assert p.total_bb == 0
    assert p.bb_capacity_per_node == {}


def test_equal_capacity_division():
    p = build_platform(PlatformConfig(bb_capacity_total=12 * 10**12))
    assert all(cap == 10**12 for cap in p.bb_capacity_per_node.values())


def test_capacity_remainder_to_lowest_ids():
    p = build_platform(PlatformConfig(bb_capacity_total=12 * 10**12 + 5))
    caps = [p.bb_capacity_per_node[n] for n in sorted(p.bb_capacity_per_node)]
    assert caps[:5] == [10**12 + 1] * 5
    assert caps[5:] == [10**12] * 7
    assert sum(caps) == 12 * 10**12 + 5


def test_invalid_topology_rejected():
    with pytest.raises(ConfigurationError):
        PlatformConfig(n_compute_nodes=95).validate()


@pytest.mark.parametrize("field, value", [
    ("n_compute_nodes", "96"),
    ("groups", 3.0),
    ("pfs_link_bw", True),
    ("bb_capacity_total", False),
])
def test_non_integer_field_rejected(field, value):
    with pytest.raises(ConfigurationError, match=field):
        PlatformConfig(**{field: value}).validate()


def test_auto_capacity_matches_model_mean():
    model = LogNormalModel(mu=math.log(1e9), sigma=1e-9)
    assert expected_bb_capacity(model, 96) == pytest.approx(96e9, rel=1e-9)
    p = build_platform(PlatformConfig(bb_request_model=model))
    assert p.total_bb == expected_bb_capacity(model, 96)


@pytest.mark.parametrize(
    "mu,sigma,n",
    [(0.0, 1.0, 1), (math.log(2e9), 1.2, 96)],
)
def test_expected_capacity_against_monte_carlo(mu, sigma, n):
    # independent oracle: sample the distribution directly
    rng = np.random.default_rng(42)
    samples = rng.lognormal(mu, sigma, size=10**7)
    mc_mean = float(samples.mean())
    model = LogNormalModel(mu=mu, sigma=sigma)
    assert model.mean() == pytest.approx(mc_mean, rel=1e-3)
    assert expected_bb_capacity(model, n) == math.floor(n * model.mean())


def test_expected_capacity_closed_form_values():
    assert LogNormalModel(0.0, 1.0).mean() == pytest.approx(math.exp(0.5))
    model = LogNormalModel(math.log(2e9), 1.2)
    assert expected_bb_capacity(model, 96) == math.floor(96 * 2e9 * math.exp(0.72))


def test_sigma_must_be_positive():
    with pytest.raises(ConfigurationError):
        LogNormalModel(mu=0.0, sigma=0.0)


@pytest.mark.parametrize("field, value", [
    ("mu", "x"), ("mu", math.nan), ("mu", math.inf), ("mu", True),
    ("sigma", None), ("sigma", math.nan), ("sigma", math.inf),
])
def test_request_model_parameters_must_be_real(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} must be a real number"):
        LogNormalModel(**{"mu": 0.0, "sigma": 1.0, field: value})


@pytest.mark.parametrize("mu, sigma", [(1000.0, 1.0), (0.0, 1e200), (709.0, 1.0)])
def test_overflowing_expected_capacity_is_a_configuration_error(mu, sigma):
    with pytest.raises(ConfigurationError, match="capacity overflows"):
        build_platform(PlatformConfig(bb_request_model=LogNormalModel(mu, sigma)))
