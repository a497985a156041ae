import math

import numpy as np
import pytest

from bbsim.engine import SimConfig, Simulation
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


def storage_ids(c, s):
    p = build_platform(PlatformConfig(n_compute_nodes=c, n_storage_nodes=s,
                                      bb_capacity_total=0))
    return p, tuple(p.bb_capacity_per_node)


def test_storage_ids_spread_over_the_compute_nodes():
    assert storage_ids(10, 3)[1] == (3, 7, 12)


def test_more_storage_than_compute_nodes_builds():
    p, storage = storage_ids(5, 12)
    assert len(set(storage)) == 12 and storage[-1] == 16
    assert p.compute_nodes == tuple(sorted(set(range(17)) - set(storage)))


@pytest.mark.parametrize("c", [1, 2, 3, 7, 12, 31])
@pytest.mark.parametrize("s", [0, 1, 2, 5, 12, 40])
def test_node_ids_partition_the_range(c, s):
    p, storage = storage_ids(c, s)
    assert len(set(storage)) == s
    assert all(0 <= node < c + s for node in storage)
    if s:
        assert storage[-1] == c + s - 1
    assert p.compute_nodes == tuple(i for i in range(c + s) if i not in storage)


@pytest.mark.parametrize("field, value", [
    ("n_compute_nodes", "96"),
    ("pfs_link_bw", True),
    ("bb_capacity_total", False),
])
def test_non_integer_field_rejected(field, value):
    with pytest.raises(ConfigurationError, match=field):
        PlatformConfig(**{field: value}).validate()


@pytest.mark.parametrize("field", ["compute_link_bw", "pfs_link_bw"])
def test_bandwidth_above_2_to_64_rejected(field):
    # the engine counts time in units of 1/lcm(bandwidths) s; below 2**128
    # units a second, every event time converts to a float
    PlatformConfig(**{field: 2**64}).validate()
    with pytest.raises(ConfigurationError, match=r"^bandwidths must be at most 2\*\*64 B/s$"):
        PlatformConfig(**{field: 2**64 + 1}).validate()


def test_largest_time_unit_runs_with_io_on(table1_jobs):
    platform = build_platform(PlatformConfig(
        n_compute_nodes=4, n_storage_nodes=1, bb_capacity_total=10 * 10**12,
        compute_link_bw=2**64, pfs_link_bw=2**64 - 1,
    ))
    lines: list[dict] = []
    sim = Simulation(platform, table1_jobs, "fcfs", SimConfig(io_model="on"), sink=lines.append)
    assert sim.unit == 2**64 * (2**64 - 1)
    records = sim.run()
    walltimes = {j.id: j.walltime for j in table1_jobs}
    assert [r.job_id for r in records] == sorted(walltimes)
    assert all(r.start <= r.finish <= r.start + walltimes[r.job_id] for r in records)
    assert all(math.isfinite(line["t"]) for line in lines)


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
