"""Partitions and the catalog of the simulated database.

A *partition* is the locking granule (Section 2.2): one horizontal range
of a relation, sized in objects.  Every 8 consecutive partition ids form
one range-partitioned relation across the 8 nodes; the experiments only
need sizes and placement, so the catalog stores exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Partition:
    """One partition: the unit of locking and of placement.

    A *declustered* partition is spread over every node instead of
    living at one: a bulk operation on it executes on all nodes in
    parallel (intra-transaction parallelism — the alternative placement
    the paper's conclusion points at; it trades higher BAT parallelism
    for the message overhead that hurts short-transaction processing).
    """

    pid: int
    size_objects: float
    node: int
    hot: bool = False
    read_only: bool = False
    declustered: bool = False

    def __post_init__(self) -> None:
        if self.pid < 0:
            raise ConfigurationError(f"partition id must be >= 0: {self.pid}")
        if self.size_objects <= 0:
            raise ConfigurationError(
                f"partition P{self.pid} must have positive size")


class Catalog:
    """All partitions of the database plus placement helpers."""

    def __init__(self, partitions: Sequence[Partition]) -> None:
        if not partitions:
            raise ConfigurationError("catalog needs at least one partition")
        self._partitions: Dict[int, Partition] = {}
        for partition in partitions:
            if partition.pid in self._partitions:
                raise ConfigurationError(
                    f"duplicate partition id {partition.pid}")
            self._partitions[partition.pid] = partition

    @classmethod
    def uniform(cls, num_partitions: int, size_objects: float,
                num_nodes: int, declustered: bool = False) -> "Catalog":
        """``num_partitions`` equal partitions placed pid mod num_nodes.

        With ``declustered=True`` every partition is instead spread over
        all nodes (its ``node`` remains the home node for bookkeeping).
        """
        return cls([Partition(pid, size_objects, pid % num_nodes,
                              declustered=declustered)
                    for pid in range(num_partitions)])

    @classmethod
    def hot_set(cls, num_hots: int, hot_size: float, num_readonly: int,
                readonly_size: float, num_nodes: int) -> "Catalog":
        """The Experiment 2/3 layout.

        ``num_readonly`` read-only partitions come first (ids 0..), one
        per node; the following ``num_hots`` ids are the hot set.
        """
        partitions = [
            Partition(pid, readonly_size, pid % num_nodes, read_only=True)
            for pid in range(num_readonly)]
        partitions += [
            Partition(pid, hot_size, pid % num_nodes, hot=True)
            for pid in range(num_readonly, num_readonly + num_hots)]
        return cls(partitions)

    def __len__(self) -> int:
        return len(self._partitions)

    def __contains__(self, pid: int) -> bool:
        return pid in self._partitions

    def partition(self, pid: int) -> Partition:
        try:
            return self._partitions[pid]
        except KeyError:
            raise ConfigurationError(f"unknown partition P{pid}") from None

    def node_of(self, pid: int) -> int:
        return self.partition(pid).node

    def size_of(self, pid: int) -> float:
        return self.partition(pid).size_objects

    @property
    def pids(self) -> List[int]:
        return sorted(self._partitions)

    @property
    def hot_pids(self) -> List[int]:
        return sorted(p.pid for p in self._partitions.values() if p.hot)

    @property
    def read_only_pids(self) -> List[int]:
        return sorted(p.pid for p in self._partitions.values() if p.read_only)

    def partitions_on_node(self, node: int) -> List[Partition]:
        return sorted((p for p in self._partitions.values() if p.node == node),
                      key=lambda p: p.pid)
