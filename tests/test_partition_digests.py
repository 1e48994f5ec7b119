"""Partitions pinned bit for bit over a grid of specs.

Each digest is the first 16 hex digits of the sha256 of a partition's
features, then its labels, in participant order, as the per-kind dealing
loops that ``scenarios.deal_table`` replaced made them.  A spec of the grid
missing here is one the pool cannot deal (see test_scenarios.py).
"""
from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from fedshapley import (ScenarioKind, ScenarioSpec, SyntheticSource, generate_source,
                        partition)
from fedshapley.scenarios import SCENARIO_PARAMS, deal_table

EXPLICIT_PARAMS = {"skew": lambda n: 0.5,
                   "ratios": lambda n: [1 + i % 3 for i in range(n)],
                   "flip_rates": lambda n: [0.3] * n,
                   "noise_rates": lambda n: [0.5] * n}

# "kind params n classes rows-a-class seed": digest
PARTITION_DIGESTS = {
    "same_dist_same_size default 2 3 7 0": "6496c854c1b6ec5e",
    "same_dist_same_size default 2 3 7 1": "419db74becb439ed",
    "same_dist_same_size default 2 3 100 0": "0edc51765969da5c",
    "same_dist_same_size default 2 3 100 1": "f1232f458483b4ac",
    "same_dist_same_size default 2 10 7 0": "f602def6ba506c10",
    "same_dist_same_size default 2 10 7 1": "07c9f08c63fd619d",
    "same_dist_same_size default 2 10 100 0": "c1b284519cd12e49",
    "same_dist_same_size default 2 10 100 1": "67f0af5fa30c6281",
    "same_dist_same_size default 4 3 7 0": "4518c00be43af817",
    "same_dist_same_size default 4 3 7 1": "40ac67f451c0479a",
    "same_dist_same_size default 4 3 100 0": "46226e253bdefbf6",
    "same_dist_same_size default 4 3 100 1": "b2a5892b2bb02d4f",
    "same_dist_same_size default 4 10 7 0": "8d9bb8f54753152f",
    "same_dist_same_size default 4 10 7 1": "7b0c72be2888a484",
    "same_dist_same_size default 4 10 100 0": "862ea28798c0477d",
    "same_dist_same_size default 4 10 100 1": "bb212cc1715db045",
    "same_dist_same_size default 10 3 100 0": "77e5eec526051076",
    "same_dist_same_size default 10 3 100 1": "5fd3645e3b1dea0a",
    "same_dist_same_size default 10 10 100 0": "329da67e1d2d1add",
    "same_dist_same_size default 10 10 100 1": "de4f57f4dc27d541",
    "diff_dist_same_size default 10 10 7 0": "61dd6927324e9454",
    "diff_dist_same_size default 10 10 7 1": "62555e8922b56c2b",
    "diff_dist_same_size default 10 10 100 0": "7a81eaffaaa5b3aa",
    "diff_dist_same_size default 10 10 100 1": "c1d01f57d0e8729f",
    "same_dist_diff_size default 2 3 7 0": "e5623b1c4648dccc",
    "same_dist_diff_size explicit 2 3 7 0": "80bfa5e40b468c68",
    "same_dist_diff_size default 2 3 7 1": "a9771d74f67f2ffc",
    "same_dist_diff_size explicit 2 3 7 1": "023d9c1da0a6c045",
    "same_dist_diff_size default 2 3 100 0": "5ba261597208444b",
    "same_dist_diff_size explicit 2 3 100 0": "9a07ead75be6c42e",
    "same_dist_diff_size default 2 3 100 1": "67ac3502186c894b",
    "same_dist_diff_size explicit 2 3 100 1": "95d7fd5f766317ed",
    "same_dist_diff_size default 2 10 7 0": "23753a00984a45d1",
    "same_dist_diff_size explicit 2 10 7 0": "f9864e0757f8400c",
    "same_dist_diff_size default 2 10 7 1": "bee9c016f2484798",
    "same_dist_diff_size explicit 2 10 7 1": "766a3988c796d121",
    "same_dist_diff_size default 2 10 100 0": "2209247d54cec97a",
    "same_dist_diff_size explicit 2 10 100 0": "68ff0d7db684fcae",
    "same_dist_diff_size default 2 10 100 1": "d4d32b7364321cee",
    "same_dist_diff_size explicit 2 10 100 1": "7d3c581432c70499",
    "same_dist_diff_size default 4 3 7 0": "f531767deff4e798",
    "same_dist_diff_size explicit 4 3 7 0": "833550bd2a84a68d",
    "same_dist_diff_size default 4 3 7 1": "c5aa57105e69e09f",
    "same_dist_diff_size explicit 4 3 7 1": "760fae6814137358",
    "same_dist_diff_size default 4 3 100 0": "864e78e2b83bc964",
    "same_dist_diff_size explicit 4 3 100 0": "682c86ff6d669264",
    "same_dist_diff_size default 4 3 100 1": "a1df39fa3df12b43",
    "same_dist_diff_size explicit 4 3 100 1": "4358cb4aad99087f",
    "same_dist_diff_size default 4 10 7 0": "f89c7175d0a68efa",
    "same_dist_diff_size explicit 4 10 7 0": "a795fe1f63292f39",
    "same_dist_diff_size default 4 10 7 1": "471185b4f76c5f88",
    "same_dist_diff_size explicit 4 10 7 1": "27d3519af769fffe",
    "same_dist_diff_size default 4 10 100 0": "d1e507576bbd26bf",
    "same_dist_diff_size explicit 4 10 100 0": "bdcd6ae11fc7ffd8",
    "same_dist_diff_size default 4 10 100 1": "7d2605c8ff0212a0",
    "same_dist_diff_size explicit 4 10 100 1": "f35144740a49577f",
    "same_dist_diff_size default 10 3 7 0": "fa16bd826ad8ecfc",
    "same_dist_diff_size explicit 10 3 7 0": "1526b410d2d7c5d2",
    "same_dist_diff_size default 10 3 7 1": "1e2fecce6f69233a",
    "same_dist_diff_size explicit 10 3 7 1": "4041547b473dde41",
    "same_dist_diff_size default 10 3 100 0": "f3453aa6e721326a",
    "same_dist_diff_size explicit 10 3 100 0": "aac9aff4a26d9b02",
    "same_dist_diff_size default 10 3 100 1": "6893fd1cc3fda1a1",
    "same_dist_diff_size explicit 10 3 100 1": "d26bc44c3f61aed6",
    "same_dist_diff_size default 10 10 7 0": "1cc9f063211c6d7d",
    "same_dist_diff_size explicit 10 10 7 0": "99b55efb5004d07e",
    "same_dist_diff_size default 10 10 7 1": "9b3f0f0bafbdc102",
    "same_dist_diff_size explicit 10 10 7 1": "a5ff923c6531a0a1",
    "same_dist_diff_size default 10 10 100 0": "5528906673f170e0",
    "same_dist_diff_size explicit 10 10 100 0": "569de99897e699d0",
    "same_dist_diff_size default 10 10 100 1": "9853cb37c3fbcb43",
    "same_dist_diff_size explicit 10 10 100 1": "75a8d0f49bba680e",
    "noisy_labels default 2 3 7 0": "5f2ea3bf66d0e0aa",
    "noisy_labels explicit 2 3 7 0": "cc7977b97866d22e",
    "noisy_labels default 2 3 7 1": "de6d09a88fab0e9a",
    "noisy_labels explicit 2 3 7 1": "2f21f5f3e445206b",
    "noisy_labels default 2 3 100 0": "e407d93e2e4418ad",
    "noisy_labels explicit 2 3 100 0": "791c9731b4efc8d9",
    "noisy_labels default 2 3 100 1": "f0d94ddc854c7030",
    "noisy_labels explicit 2 3 100 1": "6c00b60bc708193e",
    "noisy_labels default 2 10 7 0": "1289f5e77acfe448",
    "noisy_labels explicit 2 10 7 0": "3ea974c4ebf582f6",
    "noisy_labels default 2 10 7 1": "49e2e1f3b741ab53",
    "noisy_labels explicit 2 10 7 1": "b43422e147e9f27e",
    "noisy_labels default 2 10 100 0": "8299073d1f34fe2d",
    "noisy_labels explicit 2 10 100 0": "5306ff8deb5dcd58",
    "noisy_labels default 2 10 100 1": "80bc0c5cbd173343",
    "noisy_labels explicit 2 10 100 1": "63e9d6d6552dc566",
    "noisy_labels default 4 3 7 0": "c8a4dfea181b9c48",
    "noisy_labels explicit 4 3 7 0": "164297331285bb79",
    "noisy_labels default 4 3 7 1": "2eeb42a6fe122a0d",
    "noisy_labels explicit 4 3 7 1": "5843c8847d567672",
    "noisy_labels default 4 3 100 0": "735e89a99fbcf643",
    "noisy_labels explicit 4 3 100 0": "30d89db6f833fe0f",
    "noisy_labels default 4 3 100 1": "7721b534cb596087",
    "noisy_labels explicit 4 3 100 1": "c38f8a2db2be716e",
    "noisy_labels default 4 10 7 0": "8927c5ffbe8b81e3",
    "noisy_labels explicit 4 10 7 0": "9bd74289ba8554cc",
    "noisy_labels default 4 10 7 1": "ddf9d7bf574b1b2c",
    "noisy_labels explicit 4 10 7 1": "98c672fba5c06d1d",
    "noisy_labels default 4 10 100 0": "76c78f9a9c4c6640",
    "noisy_labels explicit 4 10 100 0": "437eff094c5ba012",
    "noisy_labels default 4 10 100 1": "083faa1feacdbb1a",
    "noisy_labels explicit 4 10 100 1": "591650c7cf06e0c4",
    "noisy_labels default 10 3 100 0": "7198de20f997bb53",
    "noisy_labels explicit 10 3 100 0": "1445a50baa4b2831",
    "noisy_labels default 10 3 100 1": "36aa0442a5bf05a2",
    "noisy_labels explicit 10 3 100 1": "b6a22dda9b70b9e9",
    "noisy_labels default 10 10 100 0": "e27d2f93317f9832",
    "noisy_labels explicit 10 10 100 0": "6d849e4571f92674",
    "noisy_labels default 10 10 100 1": "722b36b6981f4ba6",
    "noisy_labels explicit 10 10 100 1": "ab9ed12048b1333f",
    "noisy_features default 2 3 7 0": "16c2cddcf825231d",
    "noisy_features explicit 2 3 7 0": "6fff9400d0b8861c",
    "noisy_features default 2 3 7 1": "8c143136f14e0482",
    "noisy_features explicit 2 3 7 1": "1ea363e5539dda92",
    "noisy_features default 2 3 100 0": "8269a28d1c1cbcbd",
    "noisy_features explicit 2 3 100 0": "e68750bc7b077ff6",
    "noisy_features default 2 3 100 1": "b4a3bc6c59934142",
    "noisy_features explicit 2 3 100 1": "9733179e32c335ff",
    "noisy_features default 2 10 7 0": "afa7314fc5cc73f0",
    "noisy_features explicit 2 10 7 0": "0755bd5a53c9cd5b",
    "noisy_features default 2 10 7 1": "0c028af8b4a1ef30",
    "noisy_features explicit 2 10 7 1": "577fdaa144b1b867",
    "noisy_features default 2 10 100 0": "b811737808740f49",
    "noisy_features explicit 2 10 100 0": "120e0686858b113c",
    "noisy_features default 2 10 100 1": "282cec152c16b919",
    "noisy_features explicit 2 10 100 1": "0ad37ac29f1e0fd4",
    "noisy_features default 4 3 7 0": "df1acc6023b3ccd6",
    "noisy_features explicit 4 3 7 0": "846df89ce62c5d09",
    "noisy_features default 4 3 7 1": "41fb9ea3b0635fb4",
    "noisy_features explicit 4 3 7 1": "7f008e355d7efc83",
    "noisy_features default 4 3 100 0": "99aeca4316681b91",
    "noisy_features explicit 4 3 100 0": "58509a40cb1d3cec",
    "noisy_features default 4 3 100 1": "197576dbb8ffbab4",
    "noisy_features explicit 4 3 100 1": "a03f5fb2b290f9af",
    "noisy_features default 4 10 7 0": "937b82605baaa7a0",
    "noisy_features explicit 4 10 7 0": "89d5b3e346fb5bb0",
    "noisy_features default 4 10 7 1": "abbd75c76240346c",
    "noisy_features explicit 4 10 7 1": "cb60a2b4818279bf",
    "noisy_features default 4 10 100 0": "11f0f337cbca69e1",
    "noisy_features explicit 4 10 100 0": "2f8565275dbd8b85",
    "noisy_features default 4 10 100 1": "75f11cb6bfbea265",
    "noisy_features explicit 4 10 100 1": "d00ff955f2463d00",
    "noisy_features default 10 3 100 0": "49bc1ac93b5e531e",
    "noisy_features explicit 10 3 100 0": "f7818caaba66202f",
    "noisy_features default 10 3 100 1": "2272c38a812128a9",
    "noisy_features explicit 10 3 100 1": "82cc9254345e9f5a",
    "noisy_features default 10 10 100 0": "03dc56f8171c637c",
    "noisy_features explicit 10 10 100 0": "c49a8668b4e93914",
    "noisy_features default 10 10 100 1": "ed7b8516333a59b3",
    "noisy_features explicit 10 10 100 1": "88dd19d6ce8c2628",
}


def partition_grid(kinds=tuple(ScenarioKind)):
    """(key, spec, pool) for each spec of the grid: n in {2, 4, 10}, 3 or 10
    classes of 7 or 100 rows, seeds 0 and 1, the kind's default params and,
    where it reads one, an explicit entry."""
    for kind, n, classes, rows, seed in itertools.product(
            kinds, (2, 4, 10), (3, 10), (7, 100), (0, 1)):
        pool, _ = generate_source(SyntheticSource(input_dim=4, class_count=classes,
                                                  seed=seed),
                                  train_per_class=rows, test_per_class=1)
        entry = (SCENARIO_PARAMS[kind] or (None,))[0]
        for given in (False, True) if entry else (False,):
            key = (f"{kind.value} {'explicit' if given else 'default'} "
                   f"{n} {classes} {rows} {seed}")
            params = {entry: EXPLICIT_PARAMS[entry](n)} if given else {}
            yield key, ScenarioSpec(kind, n=n, seed=seed, params=params), pool


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_partitions_are_pinned_bit_for_bit(kind):
    pinned = 0
    for key, spec, pool in partition_grid([kind]):
        if key not in PARTITION_DIGESTS:
            continue
        # a table made beforehand deals the same partition
        table = deal_table(spec, np.bincount(pool.labels))
        for parts in (partition(pool, spec), partition(pool, spec, table)):
            digest = hashlib.sha256()
            for part in parts:
                digest.update(part.features.tobytes())
            for part in parts:
                digest.update(part.labels.tobytes())
            assert digest.hexdigest()[:16] == PARTITION_DIGESTS[key], key
        pinned += 1
    assert pinned == sum(key.startswith(f"{kind.value} ") for key in PARTITION_DIGESTS)
