"""Literal polling: a refused request asks again every ``retry_delay``.

The paper's control node re-submits a BLOCKed or DELAYed request, and a
BAT whose CN is down, after a fixed delay.
:meth:`repro.machine.shard.ControlPlane._retry` parks a BAT whose
refusal cost nothing until a certified input changes, and counts the
polls it skipped; a traced BAT polls literally.  This oracle makes every
BAT poll literally, under the same heap key, so a differential can
demand equal metrics and histories of untraced runs.
"""

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence
from unittest import mock

from repro.core.schedulers.base import Certificate
from repro.core.transaction import TransactionRuntime
from repro.engine import Event
from repro.machine.shard import ControlPlane


def _literal_retry(self: ControlPlane, txn: TransactionRuntime,
                   cert: Certificate, watch: Sequence[int],
                   credit: Callable[[int], None]) -> Event:
    now = self.env.now
    return self.env.timeout_until(now + self.params.retry_delay,
                                  sort_time=now,
                                  sort_rank=self._poll_rank(txn.tid))


@contextmanager
def literal_polling() -> Iterator[None]:
    """Every retry of every control plane polls literally while the block
    runs."""
    with mock.patch.object(ControlPlane, "_retry", _literal_retry):
        yield
