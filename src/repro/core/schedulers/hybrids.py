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
from repro.core.schedulers.base import (chain_form_rejection,
                                        k_conflict_rejection)
from repro.core.schedulers.c2pl import CautiousTwoPhaseLock
from repro.core.transaction import TransactionRuntime, TransactionSpec


class ChainC2PL(CautiousTwoPhaseLock):
    """C2PL restricted to chain-form WTPGs (no weight optimisation)."""

    name = "CHAIN-C2PL"

    def __init__(self, ddtime: float = 5.0, admission_time: float = 5.0) -> None:
        super().__init__(ddtime=ddtime, admission_time=admission_time)

    def _admission_constraint(self, txn: TransactionRuntime,
                              partners: PartnerConflicts,
                              now: float) -> Optional[str]:
        return chain_form_rejection(self.wtpg, txn.tid, partners)


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

    def _table_constraint(self, spec: TransactionSpec) -> Optional[str]:
        return k_conflict_rejection(self.table, spec, self.k,
                                    self.k_count_mode)
