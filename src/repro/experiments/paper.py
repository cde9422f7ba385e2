"""Values reported in the paper, for shape comparison.

These are the quantitative claims extractable from the paper's text (the
figures themselves are only available as low-resolution scans).  Our
reproduction targets the *shape* — who wins, by roughly what factor,
where behaviour changes — rather than absolute numbers, since Table 1's
control-cost entries are partially illegible and the authors' simulator
is unavailable.
"""

from __future__ import annotations

from typing import Dict, Tuple

# -- Experiment 1 (Figures 6 and 7) -------------------------------------------

#: ASL/CHAIN/K2 achieve 1.9-2.0x the throughput of C2PL at RT = 70 s.
EXP1_GOOD_OVER_C2PL: Tuple[float, float] = (1.9, 2.0)

#: Resources saturate at λ_S = 1.08 TPS (NODC's RT hits 70 s there).
EXP1_NODC_SATURATION_TPS: float = 1.08

#: Useful utilization of ASL/CHAIN/K2 ≈ 64 % (≈ 0.7 TPS / 1.1 TPS).
EXP1_USEFUL_UTILIZATION: float = 0.64

#: Good schedulers' throughput at RT = 70 s ≈ 0.7 TPS.
EXP1_GOOD_TPS: float = 0.7

# -- Experiment 2 (Figure 8) ----------------------------------------------------

#: C2PL's throughput at RT = 70 s, NumHots = 8 (referenced by Experiment 3).
EXP2_C2PL_TPS_AT_8_HOTS: float = 0.7

#: Qualitative ordering per NumHots: K2 best everywhere, ASL worst;
#: CHAIN degraded at 4 and 8; C2PL below K2 and CHAIN at 16 and 32.
EXP2_ORDERINGS: Dict[int, Tuple[str, ...]] = {
    4: ("K2",),                # K2 on top; CHAIN hurt by chain-form
    8: ("K2",),
    16: ("K2", "CHAIN"),       # both WTPG schedulers above C2PL
    32: ("K2", "CHAIN"),
}

#: C2PL's resource congestion at NumHots = 16/32 ≈ 70 %.
EXP2_C2PL_CONGESTION: float = 0.70

# -- Experiment 3 (Figure 9) -------------------------------------------------------

#: C2PL collapses to 0.5 TPS at RT = 70 s (30 % below Experiment 2's 0.7).
EXP3_C2PL_TPS: float = 0.5

#: CHAIN and K2 keep 1.2-1.8x the throughput of ASL and C2PL.
EXP3_WTPG_ADVANTAGE: Tuple[float, float] = (1.2, 1.8)

# -- Experiment 4 (Figure 10) ----------------------------------------------------------

#: Throughput loss at σ = 1 relative to σ = 0.
EXP4_CHAIN_LOSS_AT_SIGMA1: float = 0.046
EXP4_K2_LOSS_AT_SIGMA1: float = 0.138

#: Lower bounds at RT = 70 s.
EXP4_CHAIN_C2PL_TPS: float = 0.58
EXP4_K2_C2PL_TPS: float = 0.36

# -- Headline ----------------------------------------------------------------------

#: Abstract: both WTPG schedulers achieve 1.2-1.8x the throughput of ASL
#: and C2PL (across the hot-set experiments).
HEADLINE_SPEEDUP: Tuple[float, float] = (1.2, 1.8)
