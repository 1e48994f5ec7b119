"""Federated averaging over simulated participants, with per-round logging.

Every round stores the base model, each participant's update, and the
aggregated result, so any coalition's model can later be rebuilt by
re-aggregating stored updates instead of retraining.  Aggregation for a
coalition renormalizes by the coalition's own total weight.

Log file format (little-endian): magic ``GTGL``, format version u16,
input_dim/hidden_dim/class_count/n/T as u32, participant weights u64[n],
then per round ``base || update_1..update_n (ascending id) || aggregated``
as float32[P] blocks, and a trailing CRC32 (of everything before it).
A ``<path>.json`` sidecar carries run metadata.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .models import (LabeledDataset, ModelArchitecture, TrainConfig,
                     gradient_update, init_params, train_local)
from .seeding import derive_seed

LOG_MAGIC = b"GTGL"
LOG_FORMAT_VERSION = 1
CHUNK_ELEMENTS = 1 << 16  # float64 values per chunk of rebuilt models
EXACT_WEIGHT_LIMIT = 1 << 53


class LogFormatError(ValueError):
    """Raised for malformed, truncated, or mismatched log files."""


@dataclass(frozen=True)
class Participant:
    """One data owner; weight is its local sample count."""

    id: int
    dataset: LabeledDataset

    @property
    def weight(self) -> int:
        return len(self.dataset)


@dataclass
class RoundRecord:
    round: int
    base_model: np.ndarray
    updates: dict[int, np.ndarray]
    aggregated: np.ndarray


@dataclass
class GradientLog:
    architecture: ModelArchitecture
    rounds: list[RoundRecord]
    participant_weights: dict[int, int]

    @property
    def n(self) -> int:
        return len(self.participant_weights)

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        if self.n < 2 or not self.rounds:
            raise ValueError(f"need n >= 2 and T >= 1, got n={self.n}, T={len(self.rounds)}")
        ids = sorted(self.participant_weights)
        if ids != list(range(1, self.n + 1)):
            raise ValueError(f"participant ids not contiguous from 1: {ids}")
        for t, rec in enumerate(self.rounds):
            if rec.round != t:
                raise ValueError(f"round index {rec.round} at position {t}")
            if sorted(rec.updates) != ids:
                raise ValueError(f"round {t}: updates missing for some participants")
            rebuilt = reconstruct_submodel(rec, ids, self.participant_weights)
            if not np.array_equal(rebuilt, rec.aggregated):
                raise ValueError(f"round {t}: aggregated model does not match "
                                 "re-aggregation over the full participant set")
            if t + 1 < len(self.rounds):
                nxt = self.rounds[t + 1].base_model
                if not np.array_equal(rec.aggregated, nxt):
                    raise ValueError(f"round {t}: aggregated differs from round "
                                     f"{t + 1} base model")


def fedavg_aggregate(base: np.ndarray, updates: Mapping[int, np.ndarray],
                     weights: Mapping[int, int]) -> np.ndarray:
    """base + sum_i (w_i / W) * update_i over the ids present in ``updates``.

    W is the total weight of those ids only, so a coalition's aggregate is
    renormalized to the coalition.  Summation runs in ascending id order with
    float64 accumulators; the result is cast to float32.
    """
    if not updates:
        raise ValueError("no updates to aggregate")
    ids = sorted(updates)
    total = float(sum(weights[i] for i in ids))
    if total <= 0:
        raise ValueError("total coalition weight must be positive")
    acc = np.asarray(base, dtype=np.float64).copy()
    for pid in ids:
        delta = np.asarray(updates[pid])
        if delta.shape != acc.shape:
            raise ValueError(
                f"participant {pid}: update shape {delta.shape} does not match "
                f"model shape {acc.shape}")
        acc += (weights[pid] / total) * delta.astype(np.float64)
    return acc.astype(np.float32)


def reconstruct_submodel(record: RoundRecord, coalition: Iterable[int],
                         weights: Mapping[int, int]) -> np.ndarray:
    """Model the coalition would have produced this round (stored updates only)."""
    ids = sorted(set(coalition))
    if not ids:
        raise ValueError("empty coalition: use the round's base model directly")
    missing = [i for i in ids if i not in record.updates]
    if missing:
        raise ValueError(f"round {record.round} has no updates for {missing}")
    return fedavg_aggregate(record.base_model,
                            {i: record.updates[i] for i in ids}, weights)


class RoundStack:
    """One round's base model and updates, cast to float64 once, for
    rebuilding many coalitions' models.

    A rebuild follows :func:`fedavg_aggregate`'s float64 operation order
    (the base, plus each member's weighted update in ascending id order, then
    one cast to float32), so it returns the same bits as
    :func:`reconstruct_submodel`.  Participants are 1..n, the keys of
    ``weights``; a coalition given as a bitmask has bit ``i - 1`` set iff
    participant ``i`` is in it.  Shapes are checked here, once, and not on
    each rebuild.
    """

    def __init__(self, record: RoundRecord, weights: Mapping[int, int]):
        n = len(weights)
        if sorted(weights) != list(range(1, n + 1)):
            raise ValueError(f"participant ids not contiguous from 1: "
                             f"{sorted(weights)}")
        missing = [i for i in range(1, n + 1) if i not in record.updates]
        if missing:
            raise ValueError(f"round {record.round} has no updates for {missing}")
        self._base = np.asarray(record.base_model, dtype=np.float64)
        for pid in range(1, n + 1):
            shape = np.shape(record.updates[pid])
            if shape != self._base.shape:
                raise ValueError(
                    f"participant {pid}: update shape {shape} does not match "
                    f"model shape {self._base.shape}")
        self._updates = np.array([record.updates[i] for i in range(1, n + 1)],
                                 dtype=np.float64)
        self._weights = [weights[i] for i in range(1, n + 1)]
        # up to 2^53 every coalition's total is exact in float64, so summing
        # the weights as floats gives fedavg_aggregate's total
        self._float_totals_exact = sum(self._weights) <= EXACT_WEIGHT_LIMIT
        # rows per chunk: at most CHUNK_ELEMENTS float64 values (512 KiB)
        self._chunk_rows = max(1, CHUNK_ELEMENTS // self._base.size)
        # (w_i / W) * u_i of the member being added, reused by every rebuild
        self._scaled = np.empty_like(self._base)

    def rebuild(self, ids: Sequence[int]) -> np.ndarray:
        """Model of the coalition ``ids``: ascending, non-empty, in 1..n."""
        total = float(sum(self._weights[i - 1] for i in ids))
        if total <= 0:
            raise ValueError("total coalition weight must be positive")
        acc = self._base.copy()
        scaled = self._scaled
        for i in ids:
            np.multiply(self._weights[i - 1] / total, self._updates[i - 1],
                        out=scaled)
            acc += scaled
        return acc.astype(np.float32)

    def rebuild_masks(self, masks: np.ndarray) -> Iterator[np.ndarray]:
        """Models of the non-empty coalitions ``masks``, in order.

        They are built a chunk of rows at a time, so memory stays bounded
        however many masks there are.  Past a total weight of 2^53 the
        chunk's float64 weight totals could round differently from
        ``fedavg_aggregate``'s, so each model is then rebuilt on its own.
        """
        if not self._float_totals_exact:
            for mask in masks.tolist():
                yield self.rebuild([i + 1 for i in range(len(self._weights))
                                    if mask >> i & 1])
            return
        for start in range(0, len(masks), self._chunk_rows):
            yield from self._rebuild_chunk(masks[start:start + self._chunk_rows])

    def _rebuild_chunk(self, masks: np.ndarray) -> np.ndarray:
        members = [(masks >> i) & 1 == 1 for i in range(len(self._weights))]
        totals = np.zeros(len(masks), dtype=np.float64)
        for w, member in zip(self._weights, members):
            totals[member] += w
        if totals.min() <= 0:
            raise ValueError("total coalition weight must be positive")
        acc = np.empty((len(masks), self._base.size), dtype=np.float64)
        acc[:] = self._base
        for w, member, update in zip(self._weights, members, self._updates):
            rows = np.flatnonzero(member)
            acc[rows] += (w / totals[rows])[:, None] * update
        return acc.astype(np.float32)


def run_federation(participants: list[Participant], arch: ModelArchitecture,
                   cfg: TrainConfig, rounds: int, init_seed: int) -> GradientLog:
    """Full-participation FedAvg for ``rounds`` rounds.

    ``init_seed`` fixes the starting model; local-training shuffles use a
    per-round seed derived from ``cfg.seed`` shared by all participants, so
    identically configured participants produce identical updates.
    """
    if len(participants) < 2:
        raise ValueError("need at least two participants")
    if rounds < 1:
        raise ValueError("need at least one round")
    ids = sorted(p.id for p in participants)
    if ids != list(range(1, len(participants) + 1)):
        raise ValueError(f"participant ids must be 1..n, got {ids}")
    by_id = {p.id: p for p in participants}
    weights = {p.id: p.weight for p in participants}

    base = init_params(arch, derive_seed(init_seed, "init"))
    records: list[RoundRecord] = []
    for t in range(rounds):
        round_cfg = dataclasses.replace(cfg, seed=derive_seed(cfg.seed, "round", t))
        updates: dict[int, np.ndarray] = {}
        for pid in ids:
            try:
                local = train_local(arch, base, by_id[pid].dataset, round_cfg)
            except Exception as exc:
                raise RuntimeError(f"round {t}, participant {pid}: {exc}") from exc
            updates[pid] = gradient_update(local, base)
        aggregated = fedavg_aggregate(base, updates, weights)
        records.append(RoundRecord(round=t, base_model=base, updates=updates,
                                   aggregated=aggregated))
        base = aggregated
    return GradientLog(architecture=arch, rounds=records,
                       participant_weights=weights)


def _f32_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f4").tobytes()


def save_log(log: GradientLog, path: str | Path,
             metadata: dict | None = None) -> Path:
    """Write the binary log plus a ``<path>.json`` metadata sidecar."""
    path = Path(path)
    arch = log.architecture
    n, big_t = log.n, log.total_rounds
    buf = bytearray()
    buf += LOG_MAGIC
    buf += struct.pack("<H", LOG_FORMAT_VERSION)
    buf += struct.pack("<5I", arch.input_dim, arch.hidden_dim, arch.class_count,
                       n, big_t)
    for pid in sorted(log.participant_weights):
        buf += struct.pack("<Q", log.participant_weights[pid])
    for rec in log.rounds:
        buf += _f32_bytes(rec.base_model)
        for pid in sorted(rec.updates):
            buf += _f32_bytes(rec.updates[pid])
        buf += _f32_bytes(rec.aggregated)
    buf += struct.pack("<I", zlib.crc32(buf) & 0xFFFFFFFF)
    path.write_bytes(buf)

    sidecar = {"format_version": LOG_FORMAT_VERSION,
               "architecture": dataclasses.asdict(arch),
               "participants": n, "rounds": big_t,
               "metadata": metadata or {}}
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return path


def load_log(path: str | Path) -> GradientLog:
    """Read a log written by :func:`save_log`; verifies version and checksum."""
    raw = Path(path).read_bytes()
    head = struct.calcsize("<4sH5I")
    if len(raw) < head + 4:
        raise LogFormatError(f"{path}: file too short to be a gradient log")
    magic, version, input_dim, hidden_dim, class_count, n, big_t = struct.unpack_from(
        "<4sH5I", raw)
    if magic != LOG_MAGIC:
        raise LogFormatError(f"{path}: bad magic {magic!r}")
    if version != LOG_FORMAT_VERSION:
        raise LogFormatError(
            f"{path}: format version {version}, this reader supports "
            f"{LOG_FORMAT_VERSION}")
    if n < 2 or big_t < 1:
        raise LogFormatError(f"{path}: need n >= 2 and T >= 1, got n={n}, T={big_t}")
    try:
        arch = ModelArchitecture(input_dim=input_dim, hidden_dim=hidden_dim,
                                 class_count=class_count)
    except ValueError as exc:
        raise LogFormatError(f"{path}: header describes no model: {exc}") from exc
    p = arch.param_count
    expected = head + 8 * n + big_t * (n + 2) * p * 4 + 4
    if len(raw) != expected:
        raise LogFormatError(
            f"{path}: expected {expected} bytes for n={n}, T={big_t}, "
            f"P={p}; found {len(raw)} (truncated or corrupt)")
    stored_crc = struct.unpack_from("<I", raw, len(raw) - 4)[0]
    if zlib.crc32(memoryview(raw)[:-4]) & 0xFFFFFFFF != stored_crc:
        raise LogFormatError(f"{path}: checksum mismatch")

    off = head
    weights: dict[int, int] = {}
    for pid in range(1, n + 1):
        weights[pid] = struct.unpack_from("<Q", raw, off)[0]
        off += 8

    def block() -> np.ndarray:
        nonlocal off
        arr = np.frombuffer(raw, dtype="<f4", count=p, offset=off).copy()
        off += 4 * p
        return arr

    records = []
    for t in range(big_t):
        base = block()
        updates = {pid: block() for pid in range(1, n + 1)}
        aggregated = block()
        records.append(RoundRecord(round=t, base_model=base, updates=updates,
                                   aggregated=aggregated))
    return GradientLog(architecture=arch, rounds=records,
                       participant_weights=weights)


def load_log_metadata(path: str | Path) -> dict:
    """Read the JSON sidecar written alongside a log."""
    sidecar = Path(str(path) + ".json")
    if not sidecar.exists():
        raise LogFormatError(f"no metadata sidecar at {sidecar}")
    try:
        return json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"{sidecar}: line {exc.lineno}: {exc.msg}") from exc
