"""Golden digests of single-CN runs: metrics and traces, byte for byte.

The centralized control node is the one-shard case of the control
plane.  The digests were captured from a dedicated centralized
coordinator, so any drift in event order, CPU charging, trace shape or
metric encoding of single-CN runs shows up here as a changed sha256.
"""

import hashlib
import json

import pytest

from repro.config import SimulationParameters
from repro.faults import FaultPlan, NodeCrash
from repro.machine.cluster import Cluster
from repro.machine.trace import Tracer
from repro.workloads import pattern1, pattern1_catalog

PLANS = {
    "none": None,
    "abort-cascade": FaultPlan(abort_rate=0.1, cascade=True),
    "dn-crash": FaultPlan(
        crashes=(NodeCrash(2, 30_000.0, recover_at=50_000.0),),
        abort_rate=0.05),
}

# (scheduler, plan) -> (sha256 of as_dict() JSON, sha256 of the trace)
DIGESTS = {
    ("CHAIN", "none"): (
        "d9d5f6c135e1c84c7cbed2610dcc26b832dc1747349bdeaed5008d2be9786183",
        "bc48126a4aa6594749411719742402b4b1b24e3dc4691b7269e681814ff492f8"),
    ("CHAIN", "abort-cascade"): (
        "2e6ec9d57eaac19b400e3514a9e64991f58229661268ba5bfac8eebda10b2d9d",
        "2b575f13ae417526981f6159774a4054ffc7d03bba5b58e1770beeb9625366ae"),
    ("CHAIN", "dn-crash"): (
        "9a217c02288729024c86cc889e1bd0c44dcb88af40e7d2c7e2acdf72580a2585",
        "036635e11551eac398334c7392fe25fdfd9411f9d60fe00107a6372c1fffc097"),
    ("K2", "none"): (
        "a9ccb93ae25d8c840cd0da8ca557907f0bc3991c1015ff95435848531c1a0f30",
        "cf33811b06a8f747b1840342f193da166e06d7d3d1913b5634c273e88be2041b"),
    ("K2", "abort-cascade"): (
        "7eda79434bc5685f2676187389283e564a8177280c16654281dd48cc1f9be7e4",
        "64dbb61fcc442eeb08d7ccdf06f29e26d1719d091ebd55e4b934a7faad18d50c"),
    ("K2", "dn-crash"): (
        "26449f8d919fd9a504dc42c21a09e2fa0c9a1e73e7cab8e8aac827e105848a78",
        "78b2468ebb02d27b7f0c22803087def730264c73cf17e30c2bb4d4f0af6969a6"),
    ("C2PL", "none"): (
        "5e5c4151810eda50d79a31fcddd43a574ddf147da5f107827ded1331011a2605",
        "47e3c1cbb951b57b5755f2f58d3315e3a944517ccbbbca8e4851b2c63cc3fb55"),
    ("C2PL", "abort-cascade"): (
        "319428d9da0f73b11e6ef9690acdfb21edd8b00f6a9896a6e62ccf6ce80822f0",
        "0e3ad00b7c92e2d8bb54501a14cd7fa5f0cc850bcb6bc0b0fd288804a9b40c5b"),
    ("C2PL", "dn-crash"): (
        "f27c340ac891a23870eb7d2157bfc72a40b72627e2714166b77a684b5366c36f",
        "73b014731945ddd600ac57e91dd64733177edc750939f067b0f549c767d77ae5"),
    ("2PL", "none"): (
        "f1332f26164cb4ee604baf040f46637f5717259891233246bdf59c24befdb6d8",
        "8bca13f9c46b708522c5f04719819415fd56241d0a6359895734ca1b3c9c38f6"),
    ("2PL", "abort-cascade"): (
        "91ce205f5a10739c94a7ce76c215a993e14026e8fbf592eac96f672c54fae7d5",
        "a28a65b27584fc2abf118e6604b81a294baecf8b8a2596a4e384ad210287dcc3"),
    ("2PL", "dn-crash"): (
        "5b4e9f8179ca8541de8acead1c9ec5783c5f1586a2529d121babf6b938f1e871",
        "050e3acf5ea030e5df30ca7a9c048301c52005ffa2247c81f7041cc4936a9a8e"),
    ("ASL", "none"): (
        "8f16208288da40ddc41d960a37eaa50bf36cec2ead74971165f58c85e00f9f84",
        "a04eaa3f621bf13e53235030ec02a2662d695db776821140cad911f29a9a245a"),
    ("ASL", "abort-cascade"): (
        "f5471d8d3c1f115fb8ef0bf986940954cb8bb95f284e719fbbbc3029c43aa8de",
        "45990fe03d1d556cf226035535379776b04183f52334424ec5a1fa1bace6f12a"),
    ("ASL", "dn-crash"): (
        "523834937b4cbc8b182ee904ad7ea19daad3f6dcba693fd1b8bfbfbe8ab33d2a",
        "d2ea59a08de87be470df667b6027f445b1a7fbefea28e21e144793bb4e11f877"),
}


def digests(scheduler, plan):
    params = SimulationParameters(scheduler=scheduler, arrival_rate_tps=0.7,
                                  sim_clocks=150_000, seed=5,
                                  num_partitions=16)
    tracer = Tracer()
    result = Cluster(params, pattern1(), catalog=pattern1_catalog(),
                     tracer=tracer, fault_plan=PLANS[plan]).run()
    metrics = json.dumps(result.metrics.as_dict()).encode()
    trace = "\n".join(event.to_json() for event in tracer.events).encode()
    return (hashlib.sha256(metrics).hexdigest(),
            hashlib.sha256(trace).hexdigest())


@pytest.mark.parametrize("scheduler,plan", sorted(DIGESTS))
def test_single_cn_run_matches_golden_digest(scheduler, plan):
    metrics, trace = digests(scheduler, plan)
    expected_metrics, expected_trace = DIGESTS[(scheduler, plan)]
    assert trace == expected_trace, "trace drifted"
    assert metrics == expected_metrics, "metrics drifted"
