"""Simulated cluster description: compute nodes, storage nodes, shared PFS link."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields


class ConfigurationError(ValueError):
    """Invalid platform configuration."""


@dataclass(frozen=True)
class LogNormalModel:
    """Log-normal distribution of per-processor burst-buffer request (bytes)."""

    mu: float
    sigma: float

    def __post_init__(self):
        for name in ("mu", "sigma"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not real or not math.isfinite(value):  # nan and inf are not real numbers
                raise ConfigurationError(f"{name} must be a real number, got {value!r}")
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be > 0")

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2)


# Default request model; the fitted parameters are not published, so these are
# documented placeholders (4 GB median per processor, sigma 1.0).
DEFAULT_BB_MODEL = LogNormalModel(mu=math.log(4e9), sigma=1.0)


@dataclass(frozen=True)
class PlatformConfig:
    """Node counts, link rates and the burst-buffer capacity and request model.

    No network shape is modelled: the node ids that traces print follow from
    the two node counts alone (see build_platform).
    """

    n_compute_nodes: int = 96
    n_storage_nodes: int = 12
    compute_link_bw: int = 1_250_000_000  # 10 Gbit/s in bytes/s
    pfs_link_bw: int = 5_000_000_000  # 5 GB/s
    bb_capacity_total: int | str = "auto"
    bb_request_model: LogNormalModel = field(default_factory=lambda: DEFAULT_BB_MODEL)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # type(...) is int refuses bool, an int subclass, too
            if f.type == "int" and type(value) is not int:
                raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
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
    try:
        return math.floor(n_compute * model.mean())
    except OverflowError:
        raise ConfigurationError(f"burst-buffer capacity overflows with mu {model.mu!r}, "
                                 f"sigma {model.sigma!r}") from None


@dataclass(frozen=True)
class Platform:
    compute_nodes: tuple[int, ...]
    bb_capacity_per_node: dict[int, int]
    compute_link_bw: int
    pfs_link_bw: int

    @property
    def n_procs(self) -> int:
        return len(self.compute_nodes)

    @property
    def total_bb(self) -> int:
        return sum(self.bb_capacity_per_node.values())


def build_platform(cfg: PlatformConfig) -> Platform:
    """Construct the platform deterministically from its configuration.

    Node ids run 0..C+S-1 for C compute and S storage nodes. Storage node k
    (from 0) gets id (k + 1) * C // S + k, so the storage nodes spread evenly
    and the last id is always one of them; the compute nodes take the other
    ids in order. The default 96 + 12 puts storage at 8, 17, ..., 107, and
    a single storage node gets the last id.
    """
    cfg.validate()
    c, s = cfg.n_compute_nodes, cfg.n_storage_nodes
    storage = tuple((k + 1) * c // s + k for k in range(s))
    storage_set = set(storage)
    compute = tuple(i for i in range(c + s) if i not in storage_set)

    if cfg.bb_capacity_total == "auto":
        capacity = expected_bb_capacity(cfg.bb_request_model, cfg.n_compute_nodes)
    else:
        capacity = int(cfg.bb_capacity_total)
    if cfg.n_storage_nodes == 0 and capacity > 0:
        raise ConfigurationError("non-zero burst-buffer capacity with no storage nodes")

    per_node: dict[int, int] = {}
    if storage:
        base, rem = divmod(capacity, len(storage))
        for i, node in enumerate(storage):
            per_node[node] = base + (1 if i < rem else 0)

    return Platform(
        compute_nodes=compute,
        bb_capacity_per_node=per_node,
        compute_link_bw=int(cfg.compute_link_bw),
        pfs_link_bw=int(cfg.pfs_link_bw),
    )
