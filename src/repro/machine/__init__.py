"""The simulated shared-nothing database machine (Section 4.1, Figure 5).

A control plane owns the lock table / WTPG and coordinates two-phase
commitment; ``NumNodes`` data-processing nodes (DN) execute bulk work one
*object* at a time in round-robin among resident transactions, sending a
weight-adjustment message to the control plane after every object.
Partitions are placed at ``node = partition_id mod NumNodes`` (range
partitioning of each relation across all nodes), which is exactly the
placement that makes a single BAT's load unbalanced and concurrent BATs
necessary.

The paper's machine has one centralized control node (CN): the
one-shard :class:`ControlPlane` (:mod:`repro.machine.shard`).  With
``num_control_nodes > 1`` partition ``p`` is controlled by CN ``p mod
num_control_nodes``, cross-shard BATs commit by 2PC among their
participant CNs, and each CN keeps a :class:`DependencyLog`
(:mod:`repro.machine.control_log`), compacted at every commit and abort,
from which a crashed CN's lock table and WTPG are replayed.
"""

from repro.machine.partition import Catalog, Partition
from repro.machine.data_node import DataNode
from repro.machine.control_log import DependencyLog, LogRecord
from repro.machine.shard import ControlPlane, ControlShard
from repro.machine.cluster import Cluster, SimulationResult, run_simulation

__all__ = [
    "Catalog",
    "Cluster",
    "ControlPlane",
    "ControlShard",
    "DataNode",
    "DependencyLog",
    "LogRecord",
    "Partition",
    "SimulationResult",
    "run_simulation",
]
