"""The literal data-node loop: one engine timeout per object quantum.

Section 4.1 read word for word: a data node serves its resident steps
round-robin, one object at a time.  :class:`repro.machine.DataNode`
pre-plays the quanta no other actor can observe and yields one timeout
per window; this oracle yields every quantum, so the equivalence suites
can demand byte-identical traces, metrics and node counters.
"""

from contextlib import contextmanager
from typing import Any, Generator, Iterator
from unittest import mock

from repro.engine import Event
from repro.machine import cluster
from repro.machine.data_node import _EPSILON, DataNode


class ReferenceDataNode(DataNode):
    """A :class:`DataNode` whose server loop is the literal model."""

    def _run(self) -> Generator[Event, Any, None]:
        while True:
            if self.crashed:
                self._recovered = self.env.event()
                yield self._recovered
                self._recovered = None
                continue
            if not self._queue:
                self._wakeup = self.env.event()
                yield self._wakeup
                self._wakeup = None
                continue
            item = self._queue.popleft()
            self._current = item
            quantum = min(1.0, item.remaining)
            service = self._service_time(quantum)
            # sort_rank pins exact-time ties between different nodes'
            # quanta to node order — the same arithmetic-only key the
            # pre-playing loop uses — so tie resolution is loop-invariant.
            yield self.env.timeout_until(self.env.now + service,
                                         sort_rank=self.node_id + 1)
            self._current = None
            self.busy_time += service
            # Killed mid-quantum: the device time is spent, the result
            # is discarded (no message, no progress).
            if item.cancelled:
                continue
            self.objects_processed += quantum
            self.messages_sent += 1  # weight-adjustment message to the CN
            self.on_objects(item.txn, quantum)
            item.remaining -= quantum
            if item.remaining > _EPSILON:
                self._queue.append(item)  # round-robin: go to the back
            else:
                item.done.succeed()


@contextmanager
def reference_data_nodes() -> Iterator[None]:
    """Build every :class:`~repro.machine.cluster.Cluster` data node as a
    :class:`ReferenceDataNode` while the block runs."""
    with mock.patch.object(cluster, "DataNode", ReferenceDataNode):
        yield
