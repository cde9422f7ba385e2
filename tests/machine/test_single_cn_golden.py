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
Fourteen multi-CN rows (all but 2PL's and C2PL's ``none`` and
``dn-crash``) were re-pinned again when multi-CN admission and 2PC
charges stopped running in a process per participant: a charge is now
claimed at the instant its decision is taken, not one engine step
later, and the coordinator resumes on the charges' ends rather than on
the processes' ends.  Twenty-seven rows (all but the single-CN 2PL and
ASL rows and the (2, 2PL, *) rows) were re-pinned when a refused
request's next poll got an arithmetic heap key, ``(poll instant,
previous poll instant, per-BAT rank)``: two polls of one instant
scheduled at one instant now fire in tid order, not schedule order.
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
        "857047ccf5fd84b8e029dc3ce707aa14268efb97a08cf096d7e820d8ee295c30"),
    ("CHAIN", "abort-cascade"): (
        "25544625702e23d41bed566cb27fd1e16fc75deedefcbdf5d06bf8764c82a5a9",
        "7ecbe34d440722c2b7535d7a0ab107a7de8548621babb9a9c39b66a2f6e29f2e"),
    ("CHAIN", "dn-crash"): (
        "421c0818afd0eebf0e09ec1e68f3ee9ad7d22a711abbacea2adccf9667280853",
        "8d2c0f0f52ea425e9f369cce00bbad6db96da95af9e2cf2d2a664bbef16cbf89"),
    ("K2", "none"): (
        "d11953c65a00055059771169c145403e0fad04007bd3f46df483b77475b12981",
        "8a9f2e9cc3b15922d04d750edbfd81287b2c492d5e8cc482bb74cc8a35225bd4"),
    ("K2", "abort-cascade"): (
        "599fe8154a6073ef163da9b312e2c6fe5373cc7f1257b2dbd0a36a5a3d0d0c02",
        "48d9680e33864b42a71378eed201ce6b65b827098fc802cd384183d958bd20ed"),
    ("K2", "dn-crash"): (
        "7c082825b142d01b54c4e7a87fe22160428cc482da752038d8bad959d02a5969",
        "063b48be6f1b78ae74c61a65bafca4bb5ecf0beb6a2c14d6b6cfb8c7e61374c2"),
    ("C2PL", "none"): (
        "3210161ef54c7c56eefda9b8af79bc679f2fc3317b224954197c8229face6884",
        "79320c5cb6eb9edb82ab897b620f97097434175e16acb5bf725634714b61fb62"),
    ("C2PL", "abort-cascade"): (
        "095aa18dc24a5e40399c616aa08809e45cd31cc7c0beccba6b4b585fd7a3a8b2",
        "fa16ba92f4b00f801aafa55d384ea1a74d4aa18ff6509ae1b107988e58c6cea2"),
    ("C2PL", "dn-crash"): (
        "1a6e4020bae3eeb5d6893a50dd83b2de09046126affd78c508fa15d27e1344ca",
        "d8bcab463c57dd15478257c908ec9fb697abaee2f6dda8e70c8d1a06d2e80017"),
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
        "a6c5b1bd61532f31765717591c283a39f073522e16119f602bb1cf261235b2f0",
        "53891234ab86b5209dceda5425d8fb0ab70b1c78acf9560e0dc522e1a8c939b6"),
    (1, "K2", "cn-crash"): (
        "7d01693304f5084e307a92edc5c5a447ffef8c9764ab65cabf9e95cdfdcb9dd4",
        "cc15e31ab4ec1984e29e36b48e295e24c885bd88578cee0b80118560aefc43bb"),
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
        "274435493077c9517c1645e46df980b24c23ce99c0108154e804c79989c7acad",
        "c84c6b3b7c6ba9cad5126fa6c8c1c72c94a19c41cfd33aca9b21ae2bcf5a3715"),
    (2, "ASL", "dn-crash"): (
        "28ce48bf2fd28a13945296e44adc50478a5872292d0bceb85db24b733c601457",
        "bc2e9786896d8e35896a0f7594a8bbdd51e29c44d2c15944f69375154c55ef5f"),
    (2, "ASL", "none"): (
        "e0eb39349f5d23a8ed35e8cda9b1b631c5f98dd0367f06c4498739e6831ff208",
        "835b8a7715551a404394bdbece5cad31dc2502de623ef7bf945ff194db3574a0"),
    (2, "C2PL", "abort-cascade"): (
        "d5a817e8fe53f0e9c5da077fa1cbef35fa80c195366c6304a0ce29a321e20543",
        "22c6675b3e95a9e6e4e4fd41aa88711186578fb933d1f972f9b0d60b4fb4af6f"),
    (2, "C2PL", "dn-crash"): (
        "a3792b1683a5e612ce8d54cd9777f4ee7f915df9aff321d8c43d163ea17e300e",
        "37ba7ada943f5c04611c44684b505589f590a68f395c85e0f965f2b9af980556"),
    (2, "C2PL", "none"): (
        "84431ae79e23c296e23c97040157eebc3b358d31866a3e847fc0d8d33ca875ad",
        "b10aa02e8d08361bd1e45120d2f8a9f2a143ab3f2a90f2e0aa0b73e926703349"),
    (2, "CHAIN", "abort-cascade"): (
        "48f4796958575bf4029ae2079a1675d22b1d23a46dffe911a10ccbfdb89eda56",
        "f011df039478a9732392204ac61006d8c27d5fea0c32cf6358b5944f018be5fd"),
    (2, "CHAIN", "cn-crash"): (
        "51d1537bffa7fecee3aca27fae6dc3e16b2aace4a701d4a64dd47aa2914b7c76",
        "ac754907d002de9b037329c9392be9862a892cf2e4bdc7cb57c55f91fed87606"),
    (2, "CHAIN", "dn-crash"): (
        "c9b162036e993d088eb0b78e91ab0c9dbeb38704ca38711a8fa7fe4df29bef25",
        "30b88799cbc8d889ae4b2d2d7fb4d056fd15396037069884d4bbed504a167cc4"),
    (2, "CHAIN", "none"): (
        "a78287410f3e378f491a859d124e1ba9ffc1fc8d8baf6f3e8ac0568cd6ab4fed",
        "b73e99c91aec9aaf4fe91c747a813aa4af368d5ede0a7df2cc5d0784bc311fa9"),
    (2, "K2", "abort-cascade"): (
        "08e3404f19a7d795c775e10dd134f7399b29279f3b892c3ead8d2ae36e37f5da",
        "1bec734917a349a2e691116e03ed663d836bd644525f23d192e9b96504d46630"),
    (2, "K2", "cn-crash"): (
        "08bec5e44c5d1909f8c2218dd3186d2709b4e5ce0c7923af55c2da7371e84f8e",
        "be03d96673e54b8c9d6749c99ce1c08692d3d3096ebfa19db3c8c55e120a9dbb"),
    (2, "K2", "dn-crash"): (
        "4f63dc4c9623bbd1be259f3e63354da368cabaa88328d6b3e05152c0359b7d59",
        "2423809fd4fb012ba2ccf546546b99d10fd78713ce638ccb0126285d0bb42343"),
    (2, "K2", "none"): (
        "6b6067eae6db408e9d557502a9809f7829dbea65159fc4e98ab7a5c46137b43e",
        "866aed6929a6936c9d3f318223450ca83ea07083ffa8a3fcd984b80b1daffae4"),
    (3, "CHAIN", "cn-crash"): (
        "b33783cb125fbf6c23268bff517dfca13228dd6ff9873fa38d34e81de6eec102",
        "4f718e1d2f7d3bbcf0ee4cd561a140f5bd8b7ff6aea8cd249fa1a862b17bd3ef"),
    (3, "K2", "cn-crash"): (
        "50c38143bc9419f5a91c1834b9517fa15d8090f9e86035311fbbc2ef02e8107f",
        "b8cc3aee6eaa1411a2c0dc2095077d7358e83db8fb3bb4b062472186c28f3c0d"),
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
