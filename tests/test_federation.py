"""Aggregation arithmetic, federation runs, and the binary log format."""
from __future__ import annotations

import dataclasses
import re
import struct
import tracemalloc
import types
import zlib

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
    gtg_eval,
    gtg_ti,
    gtg_tib,
    load_log,
    load_log_metadata,
    mr_eval,
    reconstruct_submodel,
    run_federation,
    save_log,
    tmr_eval,
)
from fedshapley import federation
from fedshapley.estimators import (gtg_oti, position_marginal_profile,
                                   round_marginal_gains)
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


def test_stack_refuses_malformed_rounds():
    rec = RoundRecord(0, BASE, {1: U1, 2: U2}, BASE)
    with pytest.raises(ValueError, match="not contiguous"):
        RoundStack(rec, {1: 1, 3: 3})
    with pytest.raises(ValueError, match=r"no updates for \[2\]"):
        RoundStack(RoundRecord(0, BASE, {1: U1}, BASE), WEIGHTS)
    with pytest.raises(ValueError, match="participant 2: update shape"):
        RoundStack(RoundRecord(0, BASE, {1: U1, 2: U2[:2]}, BASE), WEIGHTS)


def test_stack_refuses_coalitions_of_zero_weight():
    # participant 1 holds no rows, so a coalition of it alone weighs nothing
    stack = RoundStack(RoundRecord(0, BASE, {1: U1, 2: U2}, BASE), {1: 0, 2: 3})
    assert np.array_equal(stack.rebuild([1, 2]), BASE + U2)
    # the empty coalition divides by no total: its model is the base
    assert stack.rebuild([]).tobytes() == BASE.tobytes()
    with pytest.raises(ValueError, match="must be positive"):
        stack.rebuild([1])
    with pytest.raises(ValueError, match="must be positive"):
        list(stack.rebuild_chunks(2))
    for n in (0, 3):  # every coalition of participants 1..n, of the stack's 2
        with pytest.raises(ValueError, match=r"n must be in 1\.\.2"):
            list(stack.rebuild_chunks(n))


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
    # participants 1 and 3 share a length, so they would train together
    shorter = LabeledDataset(good.features[:-1], good.labels[:-1])
    wide = LabeledDataset(np.ones((len(good), 7)), good.labels)
    with pytest.raises(RuntimeError, match=r"^round 0, participant 3: dataset has 7 "
                                           r"features, architecture expects 5$"):
        run_federation([Participant(1, good), Participant(2, shorter),
                        Participant(3, wide)], arch, TrainConfig(), 1, 0)


def test_a_label_past_the_models_classes_names_its_participant():
    good = gaussian_blobs(6, 5, 3, seed=0)
    # participants 1 and 2 share a length, so they would train together
    past = LabeledDataset(good.features, np.where(good.labels == 2, 3, good.labels))
    with pytest.raises(RuntimeError, match=r"^round 0, participant 2: label 3 is "
                                           r"past the model's 3 classes$"):
        run_federation([Participant(1, good), Participant(2, past)],
                       ModelArchitecture(5, 0, 3), TrainConfig(), 1, 0)
    # the same labels train a model of four classes
    log = run_federation([Participant(1, good), Participant(2, past)],
                         ModelArchitecture(5, 0, 4), TrainConfig(), 1, 0)
    assert log.total_rounds == 1


def test_a_group_that_fails_to_train_names_its_round_and_participants(monkeypatch):
    def out_of_memory(arch, base, features, labels, cfg):
        raise MemoryError("out of memory")

    monkeypatch.setattr(federation, "_train_stacked", out_of_memory)
    good = gaussian_blobs(6, 5, 3, seed=0)
    with pytest.raises(RuntimeError, match=r"^round 0, participants \[1, 2\]: out of "
                                           r"memory$"):
        run_federation([Participant(1, good), Participant(2, good)],
                       ModelArchitecture(5, 0, 3), TrainConfig(), 1, 0)


def test_an_update_past_float32s_range_names_its_round(monkeypatch):
    # round 0 trains every model to float32's largest value, and round 1 to
    # its negative, whose update from round 0's aggregate overflows float32
    largest = np.finfo(np.float32).max
    signs = iter([1, -1])

    def to_the_edge(arch, base, features, labels, cfg):
        return np.full((len(features), arch.param_count), next(signs) * largest,
                       dtype=np.float32)

    monkeypatch.setattr(federation, "_train_stacked", to_the_edge)
    good = gaussian_blobs(6, 5, 3, seed=0)
    with pytest.raises(RuntimeError, match=r"^round 1: an update or the aggregated "
                                           r"model is past float32's range$"):
        run_federation([Participant(1, good), Participant(2, good)],
                       ModelArchitecture(5, 0, 3), TrainConfig(), 3, 0)


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


def test_loaded_blocks_are_separate_writable_float32_arrays(tmp_path):
    log, _, _ = quick_log(n=3, rounds=2, seed=4, hidden_dim=4)
    loaded = load_log(save_log(log, tmp_path / "run.gtgl"))
    blocks = [a for rec in loaded.rounds
              for a in (rec.base_model, *rec.updates.values(), rec.aggregated)]
    assert len(blocks) == 2 * (3 + 2)
    for a in blocks:
        assert a.dtype == np.float32 and a.shape == (log.architecture.param_count,)
        assert a.flags.c_contiguous and a.flags.writeable
        assert a.flags.owndata  # copied out on its own, not a view of the body
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(blocks) for b in blocks[i + 1:])


def block_bytes(rec: RoundRecord) -> bytes:
    """A round's blocks, in file order."""
    return b"".join(a.tobytes() for a in (rec.base_model, *rec.updates.values(),
                                          rec.aggregated))


@pytest.mark.parametrize("hidden_dim", [0, 4], ids=["softmax", "hidden"])
def test_loaded_rounds_read_the_saved_blocks_on_every_visit(tmp_path, hidden_dim):
    log, _, _ = quick_log(n=3, rounds=3, seed=4, hidden_dim=hidden_dim)
    loaded = load_log(save_log(log, tmp_path / "run.gtgl"))
    saved = [block_bytes(rec) for rec in log.rounds]
    assert len(loaded.rounds) == 3
    for visit in range(2):
        assert [block_bytes(rec) for rec in loaded.rounds] == saved, visit
        assert [rec.round for rec in loaded.rounds] == [0, 1, 2]
    for t in range(-3, 3):
        assert block_bytes(loaded.rounds[t]) == saved[t], t
        assert loaded.rounds[t].round == t % 3
    for t in (3, -4):
        with pytest.raises(IndexError):
            loaded.rounds[t]
    with pytest.raises(TypeError):
        loaded.rounds[0] = log.rounds[0]
    # each visit reads fresh arrays: an edit is not kept
    loaded.rounds[1].base_model[:] = 0.0
    assert block_bytes(loaded.rounds[1]) == saved[1]


def test_a_log_loaded_by_a_relative_path_reads_its_rounds_from_elsewhere(
        tmp_path, monkeypatch):
    log, _, _ = quick_log(n=3, rounds=2, seed=4)
    (tmp_path / "out").mkdir()
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path)
    loaded = load_log(save_log(log, "out/run.gtgl"))
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert [block_bytes(rec) for rec in loaded.rounds] == \
        [block_bytes(rec) for rec in log.rounds]
    # a message names the path as it was given
    raw = bytearray((tmp_path / "out" / "run.gtgl").read_bytes())
    raw[-5] ^= 0xFF  # in the last round's aggregated block
    (tmp_path / "out" / "run.gtgl").write_bytes(raw)
    with pytest.raises(LogFormatError, match=r"^out/run\.gtgl: round 1: checksum"):
        loaded.rounds[1]


def d784_round_bytes(n: int) -> int:
    """One round's blocks at d = 784, hidden 64: P = 50,890, so the blocks
    dwarf the per-round bookkeeping."""
    return (n + 2) * ModelArchitecture(784, 64, 10).param_count * 4


def test_save_and_load_hold_the_log_once(tmp_path):
    # the d=784, hidden 64 model, five rounds
    arch = ModelArchitecture(input_dim=784, hidden_dim=64, class_count=10)
    rng = np.random.default_rng(5)
    base = rng.normal(0.0, 0.05, arch.param_count).astype(np.float32)
    weights = {1: 3, 2: 5, 3: 8}
    records = []
    for t in range(5):
        updates = {pid: rng.normal(0.0, 1e-3, arch.param_count).astype(np.float32)
                   for pid in (1, 2, 3)}
        records.append(RoundRecord(t, base, updates,
                                   fedavg_aggregate(base, updates, weights)))
        base = records[-1].aggregated
    log = GradientLog(arch, records, weights)
    round_bytes = d784_round_bytes(3)
    path = tmp_path / "run.gtgl"
    tracemalloc.start()
    try:
        save_log(log, path)
        saving = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = load_log(path)
        loading = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 5 * round_bytes
    # no copy of the file while writing, and one round at most while checking
    assert saving <= 0.1 * round_bytes
    assert loading <= 1.1 * round_bytes
    assert all(np.array_equal(a.aggregated, b.aggregated)
               for a, b in zip(log.rounds, loaded.rounds))


def traced_peak(work) -> int:
    """The most memory ``work()`` held at once, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def d784_logs(tmp_path) -> tuple[dict, LabeledDataset]:
    """Saved logs of one and of five rounds at d = 784, hidden 64, n = 3, by
    round count, and their test set; round 0 of the five-round run is the
    one-round run's only round."""
    paths = {}
    for rounds in (1, 5):
        log, test, _ = quick_log(n=3, rounds=rounds, seed=2, input_dim=784,
                                 hidden_dim=64, class_count=10, rows_per_class=4)
        paths[rounds] = save_log(log, tmp_path / f"run{rounds}.gtgl")
    assert np.array_equal(load_log(paths[1]).rounds[0].aggregated,
                          load_log(paths[5]).rounds[0].aggregated)
    return paths, test


def test_work_on_a_loaded_log_holds_one_round_more_than_on_a_one_round_log(tmp_path):
    paths, test = d784_logs(tmp_path)
    work = {"validate": lambda log: log.validate(),
            "save_log": lambda log: save_log(log, tmp_path / "copy.gtgl"),
            "gtg_eval": lambda log: gtg_eval(log, test),
            "mr_eval": lambda log: mr_eval(log, test)}
    round_bytes = d784_round_bytes(3)
    for name, run in work.items():
        peaks = [traced_peak(lambda: run(load_log(paths[rounds])))
                 for rounds in (1, 5)]
        # a loop's variable holds one round while the next is read; a round's
        # records and arrays add a few KB of objects to its blocks
        assert peaks[1] <= peaks[0] + round_bytes + 16 * 1024, (name, peaks)


def test_a_loop_over_a_loaded_log_drops_each_round_before_it_reads_the_next(tmp_path):
    paths, test = d784_logs(tmp_path)
    work = {"save_log": lambda log: save_log(log, tmp_path / "copy.gtgl"),
            "validate": lambda log: log.validate(),
            "gtg_eval": lambda log: gtg_eval(log, test),
            "gtg_ti": lambda log: gtg_ti(log, test),
            "gtg_tib": lambda log: gtg_tib(log, test),
            "mr_eval": lambda log: mr_eval(log, test),
            # rounds 0 to 2 are scored and rounds 3 and 4 skipped
            "tmr_eval": lambda log: tmr_eval(log, test, lam=0.5, round_threshold=0.2),
            "gtg_oti": lambda log: gtg_oti(log, test),
            "round_marginal_gains": lambda log: round_marginal_gains(log, test),
            "position_marginal_profile":
                lambda log: position_marginal_profile(log, test, samples_per_round=2)}
    round_bytes = d784_round_bytes(3)
    for name, run in work.items():
        peaks = [traced_peak(lambda: run(load_log(paths[rounds])))
                 for rounds in (1, 5)]
        # validate keeps the round before's aggregated model, a fifth of a round
        assert peaks[1] < peaks[0] + round_bytes / 2, (name, peaks)


def test_saving_a_loaded_log_holds_no_round_past_the_one_it_writes(tmp_path):
    paths, _ = d784_logs(tmp_path)
    peaks = []
    for rounds in (1, 5):
        log = load_log(paths[rounds])
        peaks.append(traced_peak(lambda: save_log(log, tmp_path / "copy.gtgl")))
    # a block is dropped before the next is read: no more than a one-round log
    assert peaks[1] <= peaks[0] + 0.01 * d784_round_bytes(3), peaks


def test_saving_a_loaded_log_over_its_own_file_keeps_its_bytes(tmp_path):
    log, _, _ = quick_log(n=3, rounds=3, seed=4, hidden_dim=4)
    path = save_log(log, tmp_path / "run.gtgl", metadata={"note": "kept"})
    raw, sidecar = path.read_bytes(), (tmp_path / "run.gtgl.json").read_bytes()
    loaded = load_log(path)
    save_log(loaded, path, metadata=load_log_metadata(path)["metadata"])
    assert path.read_bytes() == raw
    assert (tmp_path / "run.gtgl.json").read_bytes() == sidecar
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.gtgl", "run.gtgl.json"]
    # the file now in place holds the same rounds
    assert [block_bytes(rec) for rec in loaded.rounds] == \
        [block_bytes(rec) for rec in log.rounds]


def test_a_save_that_fails_leaves_every_file_as_it_was(tmp_path):
    log, _, _ = quick_log(n=3, rounds=3, seed=4)
    path = save_log(log, tmp_path / "run.gtgl")
    loaded = load_log(path)
    raw = bytearray(path.read_bytes())
    at = len(raw) - 4 - log.architecture.param_count * 4 // 2  # round 2's aggregated
    raw[at] ^= 0xFF
    path.write_bytes(raw)
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    for target in (path, tmp_path / "other.gtgl"):
        with pytest.raises(LogFormatError, match="round 2: checksum mismatch"):
            save_log(loaded, target)
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


def test_save_is_byte_deterministic(tmp_path):
    log, _, _ = quick_log(n=3, rounds=2, seed=4)
    p1 = save_log(log, tmp_path / "a.gtgl")
    p2 = save_log(log, tmp_path / "b.gtgl")
    assert p1.read_bytes() == p2.read_bytes()


def test_a_log_cut_short_while_read_is_refused(tmp_path, monkeypatch):
    # the size checked before the blocks are read is the whole log's; the
    # file then holds half of it
    log, _, _ = quick_log(n=2, rounds=1, seed=0)
    path = save_log(log, tmp_path / "run.gtgl")
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with monkeypatch.context() as patched:
        patched.setattr(federation.os, "fstat",
                        lambda fd: types.SimpleNamespace(st_size=len(raw)))
        with pytest.raises(LogFormatError, match="file changed while it was read"):
            load_log(path)


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

    # no rounds, one participant, or a participant of weight 0 (whose
    # coalition of one has no weight): written fine, refused on reading
    rec = log.rounds[0]
    alone = RoundRecord(0, rec.base_model, {1: rec.updates[1]},
                        rec.base_model + rec.updates[1])
    weightless = {**log.participant_weights, 2: 0}
    reweighed = RoundRecord(0, rec.base_model, rec.updates, fedavg_aggregate(
        rec.base_model, rec.updates, weightless))
    for bad, why in [
            (GradientLog(log.architecture, [], log.participant_weights),
             "n >= 2 and T >= 1, got n=2, T=0"),
            (GradientLog(log.architecture, [alone], {1: 5}),
             "n >= 2 and T >= 1, got n=1, T=1"),
            (GradientLog(log.architecture, [reweighed], weightless),
             "participant weights must be positive")]:
        with pytest.raises(ValueError, match=why):
            bad.validate()
        path = save_log(bad, tmp_path / "bad.gtgl")
        with pytest.raises(LogFormatError, match=why):
            load_log(path)

    with pytest.raises(LogFormatError):
        load_log_metadata(tmp_path / "missing.gtgl")


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_a_block_not_finite_is_refused_once_the_checksum_holds(tmp_path, bad):
    log, _, _ = quick_log(n=3, rounds=3, seed=4)
    log.rounds[1].updates[2][3] = bad
    path = save_log(log, tmp_path / "run.gtgl")
    with pytest.raises(LogFormatError, match=rf"^{re.escape(str(path))}: round 1: a "
                                             r"block holds a value that is not finite$"):
        load_log(path)
    # a damaged file reports its checksum first
    raw = bytearray(path.read_bytes())
    raw[-8] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(LogFormatError, match=r": checksum mismatch$"):
        load_log(path)


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

    log5, _, _ = quick_log(n=3, rounds=2, seed=1)
    log5.rounds[1].round = 5
    with pytest.raises(ValueError, match="round index 5 at position 1"):
        log5.validate()


# --- one chain rule for load_log and validate -------------------------------------


def one_ulp_up(block: np.ndarray, at: int) -> np.ndarray:
    """A copy of ``block`` whose value ``at`` is the next float32 up."""
    out = block.copy()
    out[at] = np.nextafter(out[at], np.float32(np.inf))
    return out


def break_aggregate(log):
    log.rounds[1].aggregated = one_ulp_up(log.rounds[1].aggregated, 3)


def break_base(log):
    log.rounds[1].base_model = one_ulp_up(log.rounds[1].base_model, 3)


def double_update(log):
    log.rounds[0].updates[2] = log.rounds[0].updates[2] * np.float32(2.0)


def put_nan(log):
    log.rounds[1].updates[2] = log.rounds[1].updates[2].copy()
    log.rounds[1].updates[2][3] = np.nan


# each log differs from a sound one in one place; the first rule broken
CHAIN_BREAKS = {
    "aggregate-one-ulp": (break_aggregate, "round 1: aggregated model does not match "
                          "re-aggregation over the full participant set"),
    "base": (break_base, "round 0: aggregated differs from round 1 base model"),
    "update-doubled": (double_update, "round 0: aggregated model does not match "
                       "re-aggregation over the full participant set"),
    "nan": (put_nan, "round 1: a block holds a value that is not finite"),
}


@pytest.mark.parametrize("hidden_dim", [0, 4], ids=["softmax", "hidden"])
@pytest.mark.parametrize("case", CHAIN_BREAKS)
def test_load_log_and_validate_refuse_a_broken_chain_alike(tmp_path, case, hidden_dim):
    tamper, message = CHAIN_BREAKS[case]
    log, _, _ = quick_log(n=3, rounds=2, seed=4, hidden_dim=hidden_dim)
    log.validate()
    path = save_log(log, tmp_path / "sound.gtgl")
    load_log(path).validate()
    tamper(log)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        log.validate()
    path = save_log(log, tmp_path / "broken.gtgl")
    with pytest.raises(LogFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_log(path)


def test_an_aggregate_one_ulp_off_in_the_file_is_refused_as_validate_refuses_it(tmp_path):
    log, _, _ = quick_log(n=3, rounds=2, seed=4)
    path = save_log(log, tmp_path / "run.gtgl")
    raw = bytearray(path.read_bytes())
    p = log.architecture.param_count
    at = len(raw) - 4 - 4 * p  # round 1's aggregate, the last block
    raw[at:at + 4 * p] = one_ulp_up(log.rounds[1].aggregated, 3).tobytes()
    struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(raw[:-4]))
    path.write_bytes(raw)
    message = CHAIN_BREAKS["aggregate-one-ulp"][1]
    with pytest.raises(LogFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_log(path)
    break_aggregate(log)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        log.validate()
    # a damaged file still reports its checksum first
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(raw)
    with pytest.raises(LogFormatError, match=r": checksum mismatch$"):
        load_log(path)


def no_update_of_3(log):
    del log.rounds[1].updates[3]


def an_update_of_4(log):
    log.rounds[1].updates[4] = log.rounds[1].updates[3]


def one_input_more(log):
    arch = log.architecture
    log.architecture = ModelArchitecture(arch.input_dim + 1, arch.hidden_dim,
                                         arch.class_count)


# rounds that no file of the log's header holds
LAYOUT_BREAKS = {
    "no-update-of-3": (no_update_of_3, r"^round 1 has no updates for \[3\]$"),
    "an-update-of-4": (an_update_of_4, r"^round 1: not a base, updates of "
                       r"participants 1\.\.3 and an aggregate, of 18 values each$"),
    "one-input-more": (one_input_more, r"^round 0: not a base, updates of "
                       r"participants 1\.\.3 and an aggregate, of 21 values each$"),
}


@pytest.mark.parametrize("case", LAYOUT_BREAKS)
def test_save_log_writes_no_round_that_load_log_cannot_read(tmp_path, case):
    tamper, message = LAYOUT_BREAKS[case]
    log, _, _ = quick_log(n=3, rounds=2, seed=4)
    assert log.architecture.param_count == 18
    path = save_log(log, tmp_path / "run.gtgl")
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    tamper(log)
    with pytest.raises(ValueError, match=message):
        log.validate()
    for target in (path, tmp_path / "other.gtgl"):
        with pytest.raises(ValueError, match=message):
            save_log(log, target)
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before
