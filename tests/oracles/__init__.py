"""Test oracles: paper-literal implementations the runtime is checked against.

The simulator ships one implementation per job.  Where that
implementation is an optimisation — the data node's pre-played quantum
windows, the Pareto chain DP, the copy-free E(q) overlay, the
self-compacting dependency log, the closed-form CPU server, parked
retries — the literal version it must equal lives here, outside
``src/``:

* :mod:`tests.oracles.appendix` — the paper's Lcomp/Rcomp chain optimiser
  (:func:`appendix_shortest_critical_path`, :func:`from_chain`), held
  equal to :func:`repro.core.chain_opt.optimise_chain`;
* :mod:`tests.oracles.control_log` — the append-only dependency log
  (:class:`FullDependencyLog`, :func:`full_log_differential`);
* :mod:`tests.oracles.cpu` — the control node's CPU as a generic FIFO
  resource (:class:`Resource`, :func:`reference_cpu`);
* :mod:`tests.oracles.data_node` — the one-timeout-per-quantum node loop
  (:class:`ReferenceDataNode`, :func:`reference_data_nodes`);
* :mod:`tests.oracles.estimator` — E(q) on a deep copy of the WTPG
  (:func:`estimate_reference`, :class:`ReferenceBatch`,
  :func:`reference_estimator`);
* :mod:`tests.oracles.invariants` — the lock-table/WTPG consistency check
  over every live pair (:func:`find_violations_all_pairs`);
* :mod:`tests.oracles.polling` — a refused request polled every
  ``retry_delay`` (:func:`literal_polling`).

The context managers swap an oracle into a whole simulation run, so an
equivalence test compares two runs of the same public entry points
(the log differential compares the two replays at every recovery).
"""

from tests.oracles.control_log import (FullDependencyLog,
                                       full_log_differential)
from tests.oracles.cpu import Resource, reference_cpu
from tests.oracles.data_node import ReferenceDataNode, reference_data_nodes
from tests.oracles.estimator import (ReferenceBatch, estimate_reference,
                                     reference_estimator)
from tests.oracles.invariants import find_violations_all_pairs
from tests.oracles.polling import literal_polling

__all__ = [
    "FullDependencyLog",
    "ReferenceBatch",
    "ReferenceDataNode",
    "Resource",
    "estimate_reference",
    "find_violations_all_pairs",
    "full_log_differential",
    "literal_polling",
    "reference_cpu",
    "reference_data_nodes",
    "reference_estimator",
]
