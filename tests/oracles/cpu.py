"""The literal CPU charge: request a unit, time out, release it.

:meth:`repro.machine.shard.ControlShard.cpu_work` charges the control
node's CPU with one :meth:`~repro.engine.Resource.hold` event, which
resumes the coordinator once.  This oracle is the generator it replaced,
resumed at the grant and again at the end of the charge, so the
equivalence test can demand byte-identical metrics, traces and heap
schedule counts.
"""

from contextlib import contextmanager
from typing import Any, Generator, Iterator
from unittest import mock

from repro.engine import Event
from repro.machine.shard import ControlShard


def reference_cpu_work(self: ControlShard,
                       cost: float) -> Generator[Event, Any, None]:
    """Occupy this shard's CPU for ``cost`` clocks (FIFO queueing)."""
    if cost <= 0:
        return
    request = self.cpu.request()
    yield request
    try:
        yield self.env.timeout(cost)
    finally:
        self.cpu.release(request)


@contextmanager
def reference_cpu() -> Iterator[None]:
    """Charge every control shard's CPU through the request/timeout/release
    generator while the block runs."""
    with mock.patch.object(ControlShard, "cpu_work", reference_cpu_work):
        yield
