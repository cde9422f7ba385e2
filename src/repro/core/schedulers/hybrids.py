"""Experiment 4 lower-bound hybrids: CHAIN-C2PL and K2-C2PL.

Each is plain C2PL *plus only the admission constraint* of the
corresponding WTPG scheduler — chain-form for CHAIN-C2PL, K-conflict for
K2-C2PL — with no use of weights when granting.  The paper uses them to
separate how much of CHAIN's / K-WTPG's advantage comes from the
admission constraint alone versus from weight-guided optimisation:
CHAIN-C2PL stays strong (the chain-form constraint itself avoids most
chains of blocking), K2-C2PL collapses (K-WTPG's power is in the
weights).
"""

from __future__ import annotations

from typing import Optional

from repro.core.builder import PartnerConflicts
from repro.core.chain import would_remain_chain_form
from repro.core.schedulers.c2pl import CautiousTwoPhaseLock
from repro.core.transaction import TransactionRuntime


class ChainC2PL(CautiousTwoPhaseLock):
    """C2PL restricted to chain-form WTPGs (no weight optimisation)."""

    name = "CHAIN-C2PL"

    def __init__(self, ddtime: float = 5.0, admission_time: float = 5.0) -> None:
        super().__init__(ddtime=ddtime, admission_time=admission_time)

    def _admission_constraint(self, txn: TransactionRuntime,
                              partners: PartnerConflicts,
                              now: float) -> Optional[str]:
        if not would_remain_chain_form(self.wtpg, txn.tid, partners):
            return "WTPG would not be chain-form"
        return None


class KConflictC2PL(CautiousTwoPhaseLock):
    """C2PL restricted by the K-conflict constraint (no weights)."""

    name = "K2-C2PL"

    def __init__(self, k: int = 2, ddtime: float = 5.0,
                 admission_time: float = 5.0,
                 k_count_mode: str = "transactions") -> None:
        super().__init__(ddtime=ddtime, admission_time=admission_time)
        if k < 0:
            raise ValueError(f"K must be non-negative, got {k}")
        self.k = k
        self.k_count_mode = k_count_mode

    def _admission_constraint(self, txn: TransactionRuntime,
                              partners: PartnerConflicts,
                              now: float) -> Optional[str]:
        touched = set(txn.spec.partitions)
        if self.table.k_conflict_violated(self.k, partitions=touched,
                                          count=self.k_count_mode):
            return f"K-conflict constraint (K={self.k}) violated"
        return None
