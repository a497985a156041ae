"""Simulated cluster description: compute nodes, storage nodes, shared PFS link."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


class ConfigurationError(ValueError):
    """Invalid platform configuration."""


@dataclass(frozen=True)
class LogNormalModel:
    """Log-normal distribution of per-processor burst-buffer request (bytes)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be > 0")

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2)


# Default request model; the fitted parameters are not published, so these are
# documented placeholders (4 GB median per processor, sigma 1.0).
DEFAULT_BB_MODEL = LogNormalModel(mu=math.log(4e9), sigma=1.0)


@dataclass(frozen=True)
class PlatformConfig:
    n_compute_nodes: int = 96
    n_storage_nodes: int = 12
    groups: int = 3
    chassis_per_group: int = 4
    routers_per_chassis: int = 3
    nodes_per_router: int = 3
    compute_link_bw: int = 1_250_000_000  # 10 Gbit/s in bytes/s
    pfs_link_bw: int = 5_000_000_000  # 5 GB/s
    bb_capacity_total: int | str = "auto"
    bb_request_model: LogNormalModel = field(default_factory=lambda: DEFAULT_BB_MODEL)

    def total_nodes(self) -> int:
        return (
            self.groups
            * self.chassis_per_group
            * self.routers_per_chassis
            * self.nodes_per_router
        )

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # type(...) is int refuses bool, an int subclass, too
            if f.type == "int" and type(value) is not int:
                raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
        if self.total_nodes() != self.n_compute_nodes + self.n_storage_nodes:
            raise ConfigurationError(
                f"topology mismatch: {self.groups}x{self.chassis_per_group}"
                f"x{self.routers_per_chassis}x{self.nodes_per_router} = "
                f"{self.total_nodes()} nodes, but "
                f"{self.n_compute_nodes} compute + {self.n_storage_nodes} storage"
            )
        if self.n_compute_nodes < 1:
            raise ConfigurationError("need at least one compute node")
        if self.n_storage_nodes < 0:
            raise ConfigurationError("negative storage node count")
        if self.compute_link_bw <= 0 or self.pfs_link_bw <= 0:
            raise ConfigurationError("bandwidths must be strictly positive")
        if self.bb_capacity_total != "auto":
            if type(self.bb_capacity_total) is not int or self.bb_capacity_total < 0:
                raise ConfigurationError("bb_capacity_total must be 'auto' or bytes >= 0")


def expected_bb_capacity(model: LogNormalModel, n_compute: int) -> int:
    """Expected aggregate burst-buffer demand when every processor is busy.

    n_compute times the log-normal mean, rounded down to whole bytes.
    """
    return math.floor(n_compute * model.mean())


@dataclass(frozen=True)
class Platform:
    compute_nodes: tuple[int, ...]
    storage_nodes: tuple[int, ...]
    bb_capacity_per_node: dict[int, int]
    compute_link_bw: int
    pfs_link_bw: int
    config: PlatformConfig

    @property
    def n_procs(self) -> int:
        return len(self.compute_nodes)

    @property
    def total_bb(self) -> int:
        return sum(self.bb_capacity_per_node.values())

    def node_name(self, node_id: int) -> str:
        """Dragonfly-style name of a node id (metadata only)."""
        cfg = self.config
        per_router = cfg.nodes_per_router
        per_chassis = cfg.routers_per_chassis * per_router
        per_group = cfg.chassis_per_group * per_chassis
        g, rest = divmod(node_id, per_group)
        c, rest = divmod(rest, per_chassis)
        r, n = divmod(rest, per_router)
        return f"g{g}-c{c}-r{r}-n{n}"


def build_platform(cfg: PlatformConfig) -> Platform:
    """Construct the platform deterministically from its configuration.

    Node ids run 0..N-1 in group-major order. When there is exactly one
    storage node per chassis (the default 12 = 3x4), the last node of each
    chassis takes the storage role; otherwise the highest ids do.
    """
    cfg.validate()
    total = cfg.total_nodes()
    per_chassis = cfg.routers_per_chassis * cfg.nodes_per_router
    n_chassis = cfg.groups * cfg.chassis_per_group

    if cfg.n_storage_nodes == n_chassis:
        storage = tuple(
            (i + 1) * per_chassis - 1 for i in range(n_chassis)
        )
    else:
        storage = tuple(range(total - cfg.n_storage_nodes, total))
    storage_set = set(storage)
    compute = tuple(i for i in range(total) if i not in storage_set)

    if cfg.bb_capacity_total == "auto":
        capacity = expected_bb_capacity(cfg.bb_request_model, cfg.n_compute_nodes)
    else:
        capacity = int(cfg.bb_capacity_total)
    if cfg.n_storage_nodes == 0 and capacity > 0:
        raise ConfigurationError("non-zero burst-buffer capacity with no storage nodes")

    per_node: dict[int, int] = {}
    if storage:
        base, rem = divmod(capacity, len(storage))
        for i, node in enumerate(sorted(storage)):
            per_node[node] = base + (1 if i < rem else 0)

    return Platform(
        compute_nodes=compute,
        storage_nodes=storage,
        bb_capacity_per_node=per_node,
        compute_link_bw=int(cfg.compute_link_bw),
        pfs_link_bw=int(cfg.pfs_link_bw),
        config=cfg,
    )
