"""Golden digests of control-plane runs: metrics and traces, byte for byte.

The centralized control node is the one-shard case of the control
plane.  The single-CN digests were captured from a dedicated centralized
coordinator, so any drift in event order, CPU charging, trace shape or
metric encoding of single-CN runs shows up here as a changed sha256.
The rows keyed by the number of control nodes pin multi-CN runs (2PC,
projected sub-declarations) and the logged CN-crash path on 1, 2 and 3
CNs; they were captured before the coordinator was split into phases.
The multi-CN rows except 2PL's were re-pinned when control-node CPU
charges became closed-form: two CPU ends of different CNs that tie on
``(when, sort_time)`` now fire in claim order instead of grant order.
"""

import hashlib
import json

import pytest

from repro.config import SimulationParameters
from repro.faults import ControlCrash, FaultPlan, NodeCrash
from repro.machine.cluster import Cluster
from repro.machine.trace import Tracer
from repro.workloads import pattern1, pattern1_catalog

PLANS = {
    "none": None,
    "abort-cascade": FaultPlan(abort_rate=0.1, cascade=True),
    "dn-crash": FaultPlan(
        crashes=(NodeCrash(2, 30_000.0, recover_at=50_000.0),),
        abort_rate=0.05),
    "cn-crash": FaultPlan(
        control_crashes=(ControlCrash(0, 40_000.0, recover_at=60_000.0),
                         ControlCrash(0, 100_000.0, recover_at=110_000.0)),
        abort_rate=0.1, cascade=True),
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


# (control nodes, scheduler, plan) -> (metrics sha256, trace sha256)
PLANE_DIGESTS = {
    (1, "CHAIN", "cn-crash"): (
        "0a25442686d2573b54c1b5d03abfa9a9611332a8087d448b52eb635c0c353587",
        "5767d59f331a3c9f2e5cfbfaede05db17736dd463130d8789b764d1fabae62a0"),
    (1, "K2", "cn-crash"): (
        "3984fb6254f2f6e4b4cddc27099f493d0139e8aef895ba2a601c64ff3a1b65df",
        "0f8797adbf2f25059bde5667d3b887e3714a86a0662291aa9d047b32933c19d6"),
    (2, "2PL", "abort-cascade"): (
        "838f9e485ade8fd8313578271b1f793cfb71f0a8e7e139a9fe4e81466ccc1fd0",
        "a6d5894f4c32ab8385ff54115019b47bab65bcfb3e81fa4aeadabf70a462800a"),
    (2, "2PL", "dn-crash"): (
        "f947586258653c3456ff3825e92a7828a89bfef67bf5605099cd67df2582f15d",
        "ccc6eaa244531af9e093a0a01966ef49ed572dcf4b21a72b78c1b3ca226de744"),
    (2, "2PL", "none"): (
        "11f57166a198b12563a275441502e6f4bb0239c1e4f6d112b6bb60b5e5146545",
        "f347fa2d60b5a5b78047d4cf74c99bc39447d1da3dfe63b87cdbca53c3c10205"),
    (2, "ASL", "abort-cascade"): (
        "573bf5b6df6936d0baf25f0f8211051e420cc03ba9a480a1584fa7c02129baa6",
        "f7aba2f3a19a10427e3c10d17032aeb519c8efa4da095f9bc8a49c29a42db01e"),
    (2, "ASL", "dn-crash"): (
        "cd6e1a28e3b92cf27fa0ab0b5fffeb497671af219c826f2479701407fee6f460",
        "f98360bfdfca13a56c8d1eee31dbb6b33a80fec97ba362f684c8c78249f6819a"),
    (2, "ASL", "none"): (
        "e239803aba58d467be1783c28f0e763726c639350c6686eb6cbcf0ff9a86d4e7",
        "cb87d2cb8a917ad46083d666f12b10bb8af05fee638d11bf7e37ccfd48b76b0c"),
    (2, "C2PL", "abort-cascade"): (
        "f0e499b7bada8c1d0ff77ff33734255b1503a1e7bc6e24eb4dbea56308732f2e",
        "d6dea404b830e5c251914c05137a9f41c9be2954d6364a32d429ee34abfdf8be"),
    (2, "C2PL", "dn-crash"): (
        "a3792b1683a5e612ce8d54cd9777f4ee7f915df9aff321d8c43d163ea17e300e",
        "3c01bdbd93621434962e4839445b072196b3f9a2d2111194fc64e2487c719635"),
    (2, "C2PL", "none"): (
        "84431ae79e23c296e23c97040157eebc3b358d31866a3e847fc0d8d33ca875ad",
        "9d31a33185d9732d9c4f5ce2fff34ee5236b098bfbb749af72adab815df32ca8"),
    (2, "CHAIN", "abort-cascade"): (
        "1ec07fdea0cfff53f4f232b9cd86d4d5db647c706fa9d007f533c7675b5cf415",
        "9a8b74bbe1d50906f2965ce8ec5d162b9000b18c183fe0a83a0a66d186d2a360"),
    (2, "CHAIN", "cn-crash"): (
        "7347168ae5f5661b0574f6251402f9dfef13dc5b557115f7b567dacb435ec368",
        "3f5957d182076f3668f44e4ad58ac21c1e3fca965afb2d3062837ea20b81b4c7"),
    (2, "CHAIN", "dn-crash"): (
        "42819d1765f2f7fd35b2caf6254a5d127c3be93f216aea54d37e80087603bb12",
        "a4f6a52b299281986b4fb88d42990dfb7ad885d4fd152b2d2bcdb75e49fe5dca"),
    (2, "CHAIN", "none"): (
        "a2158e37edf38ea9079e1bcf58f21532524be0d33c7f8ff385e68a162203921a",
        "6bacb89b6cfbe7fa881ef9f9617fde9e8649e510f81169d1d393056de0e53add"),
    (2, "K2", "abort-cascade"): (
        "4571801f7f670401a79f3f24335ea7834b2c1338c48f7eb49c613c896f09628b",
        "cc765c0f1a217cf81551094dbf00d4f42a61bad66cd2fcfa94ae4bc311f871c4"),
    (2, "K2", "cn-crash"): (
        "f60c5b57960ba961b16b93ce6df56a7016ff9201a9404e942a809a13d7c9feea",
        "290fe1b84c3004b7d98fe399ffded18bef282f107733cfef19ec3b64ac376361"),
    (2, "K2", "dn-crash"): (
        "645036d2e0504e3f96b77b5716321465e6e23ba90c230b6e624a0a61374d2c6c",
        "f1e9c8179df033e74d91b4f91a821d1156bd550b81e1aa7de77ee8d4240c3ef7"),
    (2, "K2", "none"): (
        "47ed0774538e70cb738a05b7e78bd1588b95c3e6f0ae819100cf9ee5846c9247",
        "8a0772eafa252e3fa8001c5d1029ac4930f8ac830b15bc740723f4d407614b38"),
    (3, "CHAIN", "cn-crash"): (
        "5baea43fc0325c09efe2ee103eff4bf6104504ae75e44bab9772d685f9bad3db",
        "002fa49d1a84e01c5eb53a660b6e2ebff28f08114e260c3bb0e3b63aec64126c"),
    (3, "K2", "cn-crash"): (
        "3d709ef5286744e95b7325cd4d02b977d4bd6f64acbd567ac9edd9f9c97d5308",
        "57db07c036e4270699ac48f80e9d0f961cd2264b911a11fdf3a625513657db08"),
}


def digests(scheduler, plan, control_nodes=1):
    params = SimulationParameters(scheduler=scheduler, arrival_rate_tps=0.7,
                                  sim_clocks=150_000, seed=5,
                                  num_partitions=16,
                                  num_control_nodes=control_nodes)
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


@pytest.mark.parametrize("control_nodes,scheduler,plan", sorted(PLANE_DIGESTS))
def test_control_plane_run_matches_golden_digest(control_nodes, scheduler,
                                                 plan):
    metrics, trace = digests(scheduler, plan, control_nodes)
    expected_metrics, expected_trace = PLANE_DIGESTS[
        (control_nodes, scheduler, plan)]
    assert trace == expected_trace, "trace drifted"
    assert metrics == expected_metrics, "metrics drifted"
