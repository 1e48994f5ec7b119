"""Aggregation arithmetic, federation runs, and the binary log format."""
from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest
from conftest import gaussian_blobs, quick_log, split_participants

from fedshapley import (
    GradientLog,
    LabeledDataset,
    LogFormatError,
    ModelArchitecture,
    Participant,
    RoundRecord,
    TrainConfig,
    fedavg_aggregate,
    load_log,
    load_log_metadata,
    reconstruct_submodel,
    run_federation,
    save_log,
)
from fedshapley.federation import RoundStack

BASE = np.array([1.0, 2.0, -4.0], dtype=np.float32)
U1 = np.array([0.5, -1.0, 2.0], dtype=np.float32)
U2 = np.array([-0.25, 0.75, 8.0], dtype=np.float32)
WEIGHTS = {1: 1, 2: 3}


def test_weighted_average_hand_oracle():
    got = fedavg_aggregate(BASE, {1: U1, 2: U2}, WEIGHTS)
    # dyadic inputs: base + 0.25*u1 + 0.75*u2 is exact
    want = np.array([1.0 + 0.125 - 0.1875,
                     2.0 - 0.25 + 0.5625,
                     -4.0 + 0.5 + 6.0], dtype=np.float32)
    assert got.dtype == np.float32
    assert np.array_equal(got, want)


def test_subset_renormalizes_to_its_own_weight():
    # only participant 2 present: divisor is w2 alone, not w1 + w2
    got = fedavg_aggregate(BASE, {2: U2}, WEIGHTS)
    assert np.array_equal(got, BASE + U2)
    rec = RoundRecord(0, BASE, {1: U1, 2: U2}, fedavg_aggregate(BASE, {1: U1, 2: U2}, WEIGHTS))
    assert np.array_equal(reconstruct_submodel(rec, [2], WEIGHTS), BASE + U2)
    assert np.array_equal(reconstruct_submodel(rec, [2, 2, 2], WEIGHTS), BASE + U2)


def test_zero_updates_leave_base_unchanged():
    zero = np.zeros_like(BASE)
    assert np.array_equal(fedavg_aggregate(BASE, {1: zero, 2: zero}, WEIGHTS), BASE)


def test_aggregate_input_validation():
    with pytest.raises(ValueError):
        fedavg_aggregate(BASE, {}, WEIGHTS)
    with pytest.raises(ValueError):
        fedavg_aggregate(BASE, {1: U1}, {1: 0})
    with pytest.raises(ValueError):
        fedavg_aggregate(BASE, {1: U1[:2]}, WEIGHTS)


def test_aggregate_stays_inside_update_envelope():
    # convex combination: each coordinate lands between the extreme updates
    rng = np.random.default_rng(0)
    for _ in range(20):
        updates = {i: rng.normal(size=6).astype(np.float32) for i in (1, 2, 3)}
        weights = {i: int(rng.integers(1, 50)) for i in (1, 2, 3)}
        base = rng.normal(size=6).astype(np.float32)
        shift = fedavg_aggregate(base, updates, weights).astype(np.float64) - base
        stacked = np.stack([updates[i] for i in (1, 2, 3)])
        assert np.all(shift >= stacked.min(axis=0) - 1e-6)
        assert np.all(shift <= stacked.max(axis=0) + 1e-6)


def test_reconstruct_rejects_empty_or_unknown_coalitions():
    rec = RoundRecord(0, BASE, {1: U1, 2: U2}, BASE)
    with pytest.raises(ValueError):
        reconstruct_submodel(rec, [], WEIGHTS)
    with pytest.raises(ValueError):
        reconstruct_submodel(rec, [3], WEIGHTS)


def test_stack_rebuilds_match_reconstruction_past_two_to_the_53():
    # float64 sums of these weights round the {1, 2} total to 2^53, where
    # fedavg_aggregate's integer sum gives 2^53 + 2; the 3 * 2^29 update
    # puts that coalition's model on a float32 rounding tie, so the two
    # totals give different models
    weights = {1: 2 ** 53 + 1, 2: 1}
    base = np.zeros(1, dtype=np.float32)
    updates = {1: np.array([1.0], dtype=np.float32),
               2: np.array([3 * 2 ** 29], dtype=np.float32)}
    rec = RoundRecord(0, base, updates, fedavg_aggregate(base, updates, weights))
    stack = RoundStack(rec, weights)
    coalitions = [(1,), (2,), (1, 2)]
    want = [reconstruct_submodel(rec, ids, weights) for ids in coalitions]
    chunked = list(stack.rebuild_masks(np.array([1, 2, 3])))
    single = [stack.rebuild(ids) for ids in coalitions]
    for w, c, s in zip(want, chunked, single):
        assert c.tobytes() == s.tobytes() == w.tobytes()


def test_federation_chain_and_full_set_reconstruction():
    log, _, _ = quick_log(n=4, rounds=3, seed=2)
    log.validate()  # raises if the chain or re-aggregation is off
    for t, rec in enumerate(log.rounds):
        assert rec.round == t
        rebuilt = reconstruct_submodel(rec, range(1, 5), log.participant_weights)
        assert np.array_equal(rebuilt, rec.aggregated)
    for prev, nxt in zip(log.rounds, log.rounds[1:]):
        assert np.array_equal(prev.aggregated, nxt.base_model)


def test_federation_is_deterministic():
    a, _, _ = quick_log(n=3, rounds=2, seed=5)
    b, _, _ = quick_log(n=3, rounds=2, seed=5)
    for ra, rb in zip(a.rounds, b.rounds):
        assert np.array_equal(ra.aggregated, rb.aggregated)
        for pid in ra.updates:
            assert np.array_equal(ra.updates[pid], rb.updates[pid])


def test_identical_participants_send_identical_updates():
    # shared per-round training seed: same data in -> bit-same update out
    data = gaussian_blobs(10, 5, 3, seed=1)
    parts = [Participant(1, data), Participant(2, data)]
    arch = ModelArchitecture(5, 0, 3)
    log = run_federation(parts, arch, TrainConfig(seed=3), rounds=2, init_seed=0)
    for rec in log.rounds:
        assert np.array_equal(rec.updates[1], rec.updates[2])
        assert np.array_equal(rec.aggregated, rec.base_model + rec.updates[1])


def test_federation_input_validation():
    data = gaussian_blobs(6, 5, 3, seed=0)
    arch = ModelArchitecture(5, 0, 3)
    with pytest.raises(ValueError):
        run_federation([Participant(1, data)], arch, TrainConfig(), 1, 0)
    with pytest.raises(ValueError):
        run_federation([Participant(1, data), Participant(3, data)],
                       arch, TrainConfig(), 1, 0)
    with pytest.raises(ValueError):
        run_federation([Participant(1, data), Participant(2, data)],
                       arch, TrainConfig(), 0, 0)


def test_training_failures_carry_round_and_participant():
    good = gaussian_blobs(6, 5, 3, seed=0)
    bad = LabeledDataset(np.ones((4, 7), dtype=np.float32), np.zeros(4, dtype=np.int64))
    arch = ModelArchitecture(5, 0, 3)
    with pytest.raises(RuntimeError, match=r"round 0, participant 2"):
        run_federation([Participant(1, good), Participant(2, bad)],
                       arch, TrainConfig(), 1, 0)


# --- persistence ---------------------------------------------------------------


def test_log_round_trip_is_bit_exact(tmp_path):
    log, _, _ = quick_log(n=3, rounds=2, seed=4)
    path = save_log(log, tmp_path / "run.gtgl", metadata={"note": "round trip"})
    loaded = load_log(path)
    assert loaded.architecture == log.architecture
    assert loaded.participant_weights == log.participant_weights
    assert loaded.total_rounds == log.total_rounds
    for ra, rb in zip(log.rounds, loaded.rounds):
        assert np.array_equal(ra.base_model, rb.base_model)
        assert np.array_equal(ra.aggregated, rb.aggregated)
        assert set(ra.updates) == set(rb.updates)
        for pid in ra.updates:
            assert np.array_equal(ra.updates[pid], rb.updates[pid])
    loaded.validate()
    assert load_log_metadata(path)["metadata"] == {"note": "round trip"}


def test_save_is_byte_deterministic(tmp_path):
    log, _, _ = quick_log(n=3, rounds=2, seed=4)
    p1 = save_log(log, tmp_path / "a.gtgl")
    p2 = save_log(log, tmp_path / "b.gtgl")
    assert p1.read_bytes() == p2.read_bytes()


def test_loader_rejects_corruption(tmp_path):
    log, _, _ = quick_log(n=2, rounds=1, seed=0)
    path = save_log(log, tmp_path / "run.gtgl")
    raw = bytearray(path.read_bytes())

    short = tmp_path / "short.gtgl"
    short.write_bytes(bytes(raw[: len(raw) // 2]))
    with pytest.raises(LogFormatError, match="truncated|short"):
        load_log(short)

    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0xFF  # payload bit flip -> checksum mismatch
    bad_crc = tmp_path / "crc.gtgl"
    bad_crc.write_bytes(bytes(flipped))
    with pytest.raises(LogFormatError, match="checksum"):
        load_log(bad_crc)

    wrong_magic = bytearray(raw)
    wrong_magic[:4] = b"NOPE"
    bad_magic = tmp_path / "magic.gtgl"
    bad_magic.write_bytes(bytes(wrong_magic))
    with pytest.raises(LogFormatError, match="magic"):
        load_log(bad_magic)

    future = bytearray(raw)
    future[4:6] = struct.pack("<H", 2)  # version bump, checksum repaired
    future[-4:] = struct.pack("<I", __import__("zlib").crc32(bytes(future[:-4])))
    bad_version = tmp_path / "version.gtgl"
    bad_version.write_bytes(bytes(future))
    with pytest.raises(LogFormatError, match="version"):
        load_log(bad_version)

    # no rounds, or one participant: written fine, refused on reading
    rec = log.rounds[0]
    alone = RoundRecord(0, rec.base_model, {1: rec.updates[1]},
                        rec.base_model + rec.updates[1])
    for empty in (GradientLog(log.architecture, [], log.participant_weights),
                  GradientLog(log.architecture, [alone], {1: 5})):
        with pytest.raises(ValueError, match="n >= 2 and T >= 1"):
            empty.validate()
        path = save_log(empty, tmp_path / "empty.gtgl")
        with pytest.raises(LogFormatError, match=f"n={empty.n}, T={empty.total_rounds}"):
            load_log(path)

    with pytest.raises(LogFormatError):
        load_log_metadata(tmp_path / "missing.gtgl")


def test_validate_flags_tampering():
    log, _, _ = quick_log(n=3, rounds=2, seed=1)
    tampered = dataclasses.replace(log)
    tampered.rounds[1].base_model = tampered.rounds[1].base_model + 1.0
    with pytest.raises(ValueError):
        tampered.validate()

    log2, _, _ = quick_log(n=3, rounds=2, seed=1)
    log2.rounds[0].updates[2] = log2.rounds[0].updates[2] * 2.0
    with pytest.raises(ValueError):
        log2.validate()

    log3, _, _ = quick_log(n=3, rounds=1, seed=1)
    del log3.rounds[0].updates[3]
    with pytest.raises(ValueError):
        log3.validate()

    log4, _, _ = quick_log(n=3, rounds=1, seed=1)
    weights = dict(log4.participant_weights)
    weights[9] = weights.pop(3)
    with pytest.raises(ValueError):
        GradientLog(log4.architecture, log4.rounds, weights).validate()
