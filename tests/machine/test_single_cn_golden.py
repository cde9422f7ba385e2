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
the processes' ends.
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
        "6ca84ac51c86a5cbfbb54e4c6a0809ac6390c9a464790e242968d4fe63b8c061",
        "91638dace45b07b7eda8ac04248d7c7cc2d28b69f7bb03cc2cba9439c323b02d"),
    (2, "ASL", "dn-crash"): (
        "28ce48bf2fd28a13945296e44adc50478a5872292d0bceb85db24b733c601457",
        "e07b84b13f3c253013002e66c612e95a6f92222bbfb4a7924b0413ea6102f460"),
    (2, "ASL", "none"): (
        "9ad7b7482eedbe49705a3c7b93ce1fedc44275e950d8a6117f9528365f3feee8",
        "1a78c05d554783dccf913bf46ca907e6d247e99dcfe62a152dde5cdbc22a11d5"),
    (2, "C2PL", "abort-cascade"): (
        "6689723841617c42feb2b9df8cd30a802c019edb23e1f76ed1cccd230c5435e0",
        "8c8189daf51c8ae09f39b835bbea5b500bbd94643ddf2a8f1483c5ff92d4589c"),
    (2, "C2PL", "dn-crash"): (
        "a3792b1683a5e612ce8d54cd9777f4ee7f915df9aff321d8c43d163ea17e300e",
        "3c01bdbd93621434962e4839445b072196b3f9a2d2111194fc64e2487c719635"),
    (2, "C2PL", "none"): (
        "84431ae79e23c296e23c97040157eebc3b358d31866a3e847fc0d8d33ca875ad",
        "9d31a33185d9732d9c4f5ce2fff34ee5236b098bfbb749af72adab815df32ca8"),
    (2, "CHAIN", "abort-cascade"): (
        "1b6c2e3f8a9c62e379f647b92398ec18f585f4e672aad1a41f4b162c7526bac0",
        "37380194f1d66f104d8d7b061d954b7bdd7be6ebf4705012ace513c12c33f9b6"),
    (2, "CHAIN", "cn-crash"): (
        "25b28683f103670c678d25f6191119f01ac35e3f6a46b037e3e0b6a2e26ed0b3",
        "de3bb49ed2d75d66a10270c9c55a936411a29d18241e949076882fb40e29de5e"),
    (2, "CHAIN", "dn-crash"): (
        "02da634e2cc6d5faf62ede86be5cc20b9363af85ae23e07d4da467656c8adf33",
        "9e613b01b06ffef0b16cf19278a76e5c21f841ef582f68b24f53f861ff21e798"),
    (2, "CHAIN", "none"): (
        "9696d8bb953822adee38c8601baa00ec96fcf7406ff3b763df48e0b3ec2ef6c9",
        "494be109d56e736a8fef0b1264f3001229c23370a69487914dd6ff17bbc878fa"),
    (2, "K2", "abort-cascade"): (
        "5271098b89ef0c2757c644db7c69733ce1992da58a7ea5af7003fb23777a555f",
        "2d287df24d51343d6fea917bb154cd4370ef288acf37d39b8d55f1400bf616f7"),
    (2, "K2", "cn-crash"): (
        "042a50bd6debf38dbbc5ade44998d16dccb25d0289b7271782aa018dae1bdbcc",
        "ed7fd6423942750520bb92f793b069a9028358c398ee0408f116d5885a4d7a3c"),
    (2, "K2", "dn-crash"): (
        "a56fe97a41609a43e66ae7203d2ceb51b0f61aee185eabf6838fa2b434b41533",
        "31594df4ee6d70c5f9d7972b5215122413e62287da93f35884b7da3412ad4bbf"),
    (2, "K2", "none"): (
        "345266ff752daa3899a38de381a874d76a2c747ea7a9350f3de00e34a68e6621",
        "c44b6c1842eba093ee90fea742d15e602e55fa9d13e7be28c8fee12097e6517f"),
    (3, "CHAIN", "cn-crash"): (
        "9f6b57e8344ca4b6e7a1295195b27ecea3cfe3cee4b9a5012dead90238d8d042",
        "90471d744ee9dfe466cffeec73bd27191dfbeb4f94343969fa1e341a075a0676"),
    (3, "K2", "cn-crash"): (
        "debd345a7927612656e9146f1aad0b171ff6a26b31362e69277b8b6c00362b64",
        "44299245ac9a79f874a3a257ae8caf4c480b0f8483f4a34c964130e4927d92a1"),
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
