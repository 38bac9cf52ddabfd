"""Golden digests of the decoder, the Monte Carlo drivers and the parity matrix.

The digests were recorded from the implementation before the Monte Carlo
drivers were merged into one loop and the erasure bookkeeping moved to a
precomputed index; the generator and encode digests were recorded from the
gather-formula encoder and row reduction, and the rs_encode digests from the
shift-register encoder. Any change to them means the outputs for fixed seeds
changed, which those refactors must not do.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from pgcodes.expcode import build_parity, encode, iterative_decode
from pgcodes.prng import SplitMix64, substream
from pgcodes.rscodec import RsParams, rs_encode
from pgcodes.simlab import TrialConfig, run_burst, run_interleaved, run_random


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _report_payload(report) -> dict:
    return {
        "success": report.success,
        "iterations_used": report.iterations_used,
        "per_iteration": [asdict(r) for r in report.per_iteration],
        "final_word": report.final_word.tobytes().hex(),
    }


# (driver, k, epsilon, weight, rounds, seed, digest); k is the interleaving
# depth of run_interleaved and unused by the other two drivers.
SUMMARY_DIGESTS = [
    ("random", 0, 5, 180, 12, 777, "dc6734990055fc29cf1dfc431962b19a7742e77d58b1ae18cb68edd2067cbc1a"),
    ("random", 0, 7, 250, 6, 3, "c51fa33c3f3ba0d64b0ce27b309859b85c58c951ed76473420a1bbca60effefa"),
    ("burst", 0, 5, 135, 20, 42, "525394d540327d4715346f40fcd7aaa9686ffd4d35b6d687e360bc1fadb5f099"),
    ("burst", 0, 7, 200, 8, 5, "15a0c9d2da43094711c60fc9cb5653a575c847ca824063383ece754b5b8d75e0"),
    ("interleaved", 1, 5, 135, 10, 42, "63c9bb8fd388302485ef49dddb25e776833ee8ec13c939db73c1aded2868f9d4"),
    ("interleaved", 2, 5, 270, 8, 9, "cdfce8986b34ea9291dda8e7fe9a83c5fe9871969b98a05ac2870890456df303"),
    ("interleaved", 3, 7, 600, 8, 9, "e018ac053a9c23d4b2d0869e3ecad4c1dc569d83bffe7f8438281703ed22656f"),
]


@pytest.mark.parametrize("driver, k, epsilon, weight, rounds, seed, expected", SUMMARY_DIGESTS)
def test_trial_summary_digest(specs, driver, k, epsilon, weight, rounds, seed, expected):
    model = "random" if driver == "random" else "burst"
    cfg = TrialConfig(epsilon, model, weight, rounds=rounds, seed=seed)
    if driver == "random":
        summary = run_random(cfg, specs[epsilon])
    elif driver == "burst":
        summary = run_burst(cfg, specs[epsilon])
    else:
        summary = run_interleaved(k, cfg, specs[epsilon])
    assert _digest(asdict(summary)) == expected, asdict(summary)


def _decode_cases(spec, seed: int, with_erasures: bool) -> list[dict]:
    """Decode reports of seeded error (and erasure) patterns on the zero word.

    The weights run from easy to past the decoder's cliff, so the cases mix
    one-pass successes, multi-iteration successes and failures. Half of the
    erased symbols keep their correct value 0, and the last case erases
    2t + 1 edges of point vertex 1, more than its component can absorb.
    """
    n, q = spec.n_symbols, spec.field.q
    t = spec.rs.t
    n_side = spec.graph.n_side
    out = []
    for i, weight in enumerate((20 * t, 60 * t, 85 * t, 100 * t)):
        rng = substream(seed, i)
        n_erased = 8 * t if with_erasures else 0
        pos = rng.sample(n, weight + n_erased)
        word = np.zeros(n, dtype=np.uint8)
        for p in pos[:weight]:
            word[p] = rng.nonzero_symbol(q)
        for j, p in enumerate(pos[weight:]):
            word[p] = rng.below(q) if j % 2 else 0
        labels = [p + 1 for p in pos[weight:]]
        if with_erasures and i == 3:
            labels += [1 + n_side * k for k in range(2 * t + 1)]
        out.append(_report_payload(iterative_decode(spec, word, erasures=labels)))
    return out


DECODE_DIGESTS = {
    3: (
        "981485e0080c6ba9a3e53b5f4b58250699f680e1627b4742595c18f6bd8fbabb",
        "bf978494e09c8b006a42ee72e06fbdafecf9c7068d69c51cdc85a73ffa32b37e",
    ),
    5: (
        "4340b7561c2106a753481cb7cd4dfbfc6b3c3e802ed2ee818b9701e4f4ebb5e1",
        "3f33969fc55ed93f5fe5c59c0615237ce3c8461a814d4a904fbc0fdc19551912",
    ),
    7: (
        "b76ded931e4e8a7f9a7b943dd553a5d630b76767f108ff44c4474ca81102bb3d",
        "e6d52796c890b0ef0cf64547143efe65175428597aa1cef8517abf28b90955ab",
    ),
    9: (
        "5c78006f81c9c6cf9bda49921daf4ac5077cf0816e16ef1e905ef45d7ee336bd",
        "975f3511b3c2c7003ef4fabd3bc7ec95c68cc0a50bc6fbc9aac17984e99c227b",
    ),
    11: (
        "6f13243340d0c28a0f7e02f7a420d670fa5bc88b9814f6918e75cafe7d7cc7c6",
        "3bba8fa45ea0c2f0b9174220b3f7ab04814fc2c323cfcac4a2b788680857aa92",
    ),
    13: (
        "d9a8ac657cf498c21dabff902b1773a8a4d934e2dafd5662b8f6ca5174a6e2ff",
        "0e898fb1c3c13e8fa7d04de18cf6abccef03a64aeea1a026aeac5691553dc331",
    ),
    15: (
        "d9b5eba5f17ea717b6e3a8580573d96ecd57a6c92f74245207253b77a40e4f5c",
        "f840135f115f537668a915e3fd9a22fd71b5cbe4467315f2eb61198ab0908e46",
    ),
}


@pytest.mark.parametrize("epsilon", sorted(DECODE_DIGESTS))
def test_decode_digest(specs, epsilon):
    plain, erased = DECODE_DIGESTS[epsilon]
    assert _digest(_decode_cases(specs[epsilon], 100 + epsilon, False)) == plain
    assert _digest(_decode_cases(specs[epsilon], 200 + epsilon, True)) == erased


@pytest.mark.parametrize(
    "epsilon, expected",
    [
        (5, "4a97a33b6e9d865050f38529d05c1b91af219657ba8fb74208d4eb2fd653ed85"),
        (7, "8bc8dace5780edea783eec6948f4260a7092a7321801885638e2b6ac689396ce"),
    ],
)
def test_parity_digest(specs, epsilon, expected):
    H = build_parity(specs[epsilon])
    got = hashlib.sha256(repr(H.shape).encode() + H.tobytes()).hexdigest()
    assert got == expected


@pytest.mark.parametrize(
    "epsilon, expected",
    [
        (5, "824f330d5d30342bb8f549da5197b5cee4bb0652babcf32e1a7ec54565ba658d"),
        (7, "8c844b5f1b1438be36b6884524091a206d5497682d9729b5bd47591aba202998"),
    ],
)
def test_generator_digest(specs, epsilon, expected):
    spec = specs[epsilon]
    G = spec.generator_matrix
    got = hashlib.sha256(repr((G.shape, spec.rank)).encode() + G.tobytes()).hexdigest()
    assert got == expected


@pytest.mark.parametrize(
    "message, expected",
    [
        ("zero", "10099594983cd43345d46cb420473f2e1b27690088d266a29632c48b65afd9c0"),
        ("all-255", "5ffe248212b5c7f190c0315b75e08a6b32650dd544b19d699863060bc92f9b52"),
        ("splitmix64", "3c6145e0d4b83676b32373585c34f313e83b95abac2e23370a2b3e195afd9e98"),
    ],
)
def test_encode_digest(specs, message, expected):
    spec = specs[7]
    k = spec.k_overall
    if message == "zero":
        msg = np.zeros(k, dtype=np.uint8)
    elif message == "all-255":
        msg = np.full(k, 255, dtype=np.uint8)
    else:
        rng = SplitMix64(507)
        msg = np.array([rng.below(256) for _ in range(k)], dtype=np.uint8)
    assert hashlib.sha256(encode(spec, msg).tobytes()).hexdigest() == expected


# (all-zero, all-255, splitmix64 seeded 600 + epsilon) message digests. The
# all-zero codeword is 31 zero bytes at every epsilon.
RS_ENCODE_DIGESTS = {
    3: (
        "fd08be957bda07dc529ad8100df732f9ce12ae3e42bcda6acabe12c02dfd6989",
        "8d047ce9ef7443b2ead5bc082016e01458085e0408547a54df6852ed28665bdc",
        "a2a2d1bcc9f84ab83530a072624d5a071b170e62a3eb7d49d1568caa1a3d09c2",
    ),
    5: (
        "fd08be957bda07dc529ad8100df732f9ce12ae3e42bcda6acabe12c02dfd6989",
        "e837c3fe4bcc968f7e9c55b6dd4a7a349fca343ca2867466067553d341fd0a5b",
        "746072c02f766bd6bc864b8b01c7ee64a13b7ebb9dc8b55f744e016f0a58f4f1",
    ),
    7: (
        "fd08be957bda07dc529ad8100df732f9ce12ae3e42bcda6acabe12c02dfd6989",
        "a02c97ecf69249203ba861208597c12dcf97178f146f0e58d0c846486b7223df",
        "8e832887793bedae8415957f9425f8f7a3d060b9797e4c7858a4d3d98e2a0f67",
    ),
    9: (
        "fd08be957bda07dc529ad8100df732f9ce12ae3e42bcda6acabe12c02dfd6989",
        "a9c688ecb89786f2f164d194f6754fe51f1d5ed0ef0cccbb189c5388e014f4da",
        "7f13e49d709e6668ffa1aacc1062ca3581b6069554a16d58763cc042033fea66",
    ),
    11: (
        "fd08be957bda07dc529ad8100df732f9ce12ae3e42bcda6acabe12c02dfd6989",
        "df443259699758bacdd8a61d4ee096658b557458f5c493714920273a1b6322f3",
        "1577ce4e6126b8d86ac783984fb314c391d7a955167ce6649505349f60d6d2bf",
    ),
    13: (
        "fd08be957bda07dc529ad8100df732f9ce12ae3e42bcda6acabe12c02dfd6989",
        "3417d887e65b4fe9ef74b84edae7184ed689a726de6052bc0bc1826570e2f248",
        "be6a3eec62cc8ebc817fa0f13dad1892b7d31a56848389a38ee62ca660c100f9",
    ),
    15: (
        "fd08be957bda07dc529ad8100df732f9ce12ae3e42bcda6acabe12c02dfd6989",
        "5f4abbea27109fd8ffe2b84dd7c0e8357ffa7a175e8098592568de3433a5007d",
        "c43ef924f7be2be0059856278d17730f41a5b065c2e86cb0d4ba74f8ee2b7565",
    ),
}


@pytest.mark.parametrize("epsilon", sorted(RS_ENCODE_DIGESTS))
def test_rs_encode_digest(epsilon):
    p = RsParams(31, epsilon)
    rng = SplitMix64(600 + epsilon)
    messages = ([0] * p.k, [255] * p.k, [rng.below(256) for _ in range(p.k)])
    got = tuple(hashlib.sha256(bytes(rs_encode(p, m))).hexdigest() for m in messages)
    assert got == RS_ENCODE_DIGESTS[epsilon]
