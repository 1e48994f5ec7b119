"""Federated averaging over simulated participants, with per-round logging.

Every round stores the base model, each participant's update, and the
aggregated result, so any coalition's model can later be rebuilt by
re-aggregating stored updates instead of retraining.  Aggregation for a
coalition renormalizes by the coalition's own total weight.

Log file format (little-endian): magic ``GTGL``, format version u16,
input_dim/hidden_dim/class_count/n/T as u32, participant weights u64[n],
then per round ``base || update_1..update_n (ascending id) || aggregated``
as float32[P] blocks, and a trailing CRC32 (of everything before it).
A ``<path>.json`` sidecar carries run metadata.  A loaded log holds no
blocks: its rounds are read from the file when they are visited.
"""

from __future__ import annotations

import collections.abc
import contextlib
import dataclasses
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

# run_federation trains with models._train_stacked, and nothing here calls
# train_local; the benchmark's traced run (perfbench/spans.py) wraps
# federation.train_local by name, so the import stays
from .models import (CHUNK_ELEMENTS, LabeledDataset, ModelArchitecture,
                     TrainConfig, _stack_datasets, _train_stacked, check_training,
                     coalition_total, gradient_update, init_params, train_local)
from .seeding import derive_seed

LOG_MAGIC = b"GTGL"
LOG_FORMAT_VERSION = 1
LOG_HEADER = struct.Struct("<4sH5I")
# the largest value a u32 header field (a dimension, n or T) stores
HEADER_FIELD_MAX = (1 << 32) - 1
# RoundStack.rebuild sums a coalition of at least GATHER_MEMBERS members of a
# model of at most GATHER_PARAMS values in one reduction over its gathered
# rows; below either, adding one member at a time is faster.  Timed on a
# 2-core Xeon (numpy 2.4.6): at 170 values, 4 members take 11 us one at a
# time and 14 us gathered, and 31 members 72 us and 23 us; at 714 values
# (near cli784's 650-value tails), 4 members take 8.6 us and 15 us; at
# 2,410 and 50,890 values one at a time is faster at every size.
GATHER_MEMBERS = 6
GATHER_PARAMS = 512
# every model a stack of no columns rebuilds (a softmax model's tail on a wide set)
_NO_VALUES = np.empty(0, dtype=np.float32)
_NO_VALUES.flags.writeable = False


def block_buffer(size: int) -> int | None:
    """The ufunc buffer, in values, under which :meth:`RoundStack.rebuild_chunks`
    sums a block of rows of ``size`` values, one or two rows: 256 from 128
    values to 256, the row rounded up to a multiple of 16 up to 2,048, and
    None (the buffer left as it is) for a narrower or a wider row.

    Timed on a 2-core Xeon (numpy 2.4.6), alternating in one process, the
    2^10 models of n = 10 took 0.62-0.67 times the default size's time at
    128 values a row, 0.52-0.62 at 170, 0.49 at 512, 0.54 at 714 and 0.47 at
    2,000.  Under 128 values a 256 buffer gained at most 0.77 times and lost
    up to 1.15 times (at 2 values, and at 64 depending on the allocation),
    and from about 3,000 values on no size timed faster than the default."""
    if not 128 <= size <= 2048:
        return None
    return max(256, -(-size // 16) * 16)


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
    """A run's rounds and participant weights.  ``rounds`` is a list for a
    log :func:`run_federation` returns, and a :class:`StoredRounds`, which
    reads each round from the file when it is visited, for one
    :func:`load_log` returns."""

    architecture: ModelArchitecture
    rounds: Sequence[RoundRecord]
    participant_weights: dict[int, int]

    @property
    def n(self) -> int:
        return len(self.participant_weights)

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)

    def validate(self) -> None:
        """Check the log's layout (:meth:`_blocks`) and its FedAvg chain
        (:class:`_Chain`); raises ValueError at the first broken rule.

        The rounds are visited once, in order, so one round is held at a
        time."""
        chain = _Chain(self.participant_weights, len(self.rounds))
        for t, k, block in self._blocks():
            chain.add(t, k, block)
            if chain.problem is not None:
                break
        if chain.problem is not None:
            raise ValueError(chain.problem)

    def _blocks(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """Every round's blocks in file order, as (round, index, block): the
        base is block 0, participant i's update block i, the aggregate block
        n + 1.  A round's layout is checked before its blocks are yielded:
        its index is its position, it holds an update of each participant
        1..n (:func:`round_vectors`) and of no one else, and each block holds
        the model's values.  A round is dropped before the next is read."""
        p = self.architecture.param_count
        t = 0  # not enumerate: its tuple would keep a round while the next is read
        for rec in self.rounds:
            if rec.round != t:
                raise ValueError(f"round index {rec.round} at position {t}")
            blocks = [*round_vectors(rec, self.participant_weights), rec.aggregated]
            if len(rec.updates) != self.n or {np.shape(b) for b in blocks} != {(p,)}:
                raise ValueError(f"round {t}: not a base, updates of participants "
                                 f"1..{self.n} and an aggregate, of {p} values each")
            for k, block in enumerate(blocks):
                yield t, k, block
            t += 1
            del rec, blocks, block  # before the next round is read


class _Chain:
    """The rule a sound log keeps, checked a block at a time in file order
    (each round's base, its updates in ascending id order, its aggregate):
    n >= 2 participants, each of positive weight, and T >= 1 rounds; every
    value is finite; each round's base is the round before's aggregate; and
    each aggregate is :func:`fedavg_aggregate`'s float64 sum of its round's
    updates, cast to float32 once.  ``problem`` is the first rule broken,
    or None; once it is set, no block is checked.  One float64 block is
    held, the sum: no copy of an aggregate is kept, since once it matches
    the sum's cast, the next base is compared with that cast."""

    def __init__(self, weights: Mapping[int, int], rounds: int):
        self.problem = None
        if len(weights) < 2 or rounds < 1:
            self.problem = f"need n >= 2 and T >= 1, got n={len(weights)}, T={rounds}"
        elif min(weights.values()) < 1:
            self.problem = f"participant weights must be positive, got {dict(weights)}"
        else:
            total = coalition_total(weights.values())
            self._scales = [weights[i] / total for i in sorted(weights)]

    # two float32 blocks can sum past float32's range: the sum's cast is then
    # inf, which no finite aggregate equals
    @np.errstate(over="ignore")
    def add(self, t: int, k: int, block: np.ndarray) -> None:
        """Check block ``k`` of round ``t``: 0 is the base, 1..n the
        updates, n + 1 the aggregate."""
        if self.problem is not None:
            return
        if not np.isfinite(block).all():
            self.problem = f"round {t}: a block holds a value that is not finite"
        elif k == 0 and t and not np.array_equal(self._sum.astype(np.float32), block):
            self.problem = f"round {t - 1}: aggregated differs from round {t} base model"
        elif k == 0:
            self._sum = np.array(block, dtype=np.float64)
        elif k <= len(self._scales):
            self._sum += np.multiply(block, self._scales[k - 1], dtype=np.float64)
        elif not np.array_equal(self._sum.astype(np.float32), block):
            self.problem = (f"round {t}: aggregated model does not match "
                            "re-aggregation over the full participant set")


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
    total = coalition_total(weights[i] for i in ids)
    acc = np.array(base, dtype=np.float64)
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


def round_vectors(record: RoundRecord, weights: Mapping[int, int]) -> list[np.ndarray]:
    """The round's base and its updates, participant i's at index i, as the
    record holds them (uncopied), once checked: participants are 1..n, the
    keys of ``weights``, and each has an update of the base's shape."""
    n = len(weights)
    if sorted(weights) != list(range(1, n + 1)):
        raise ValueError(f"participant ids not contiguous from 1: {sorted(weights)}")
    missing = [i for i in range(1, n + 1) if i not in record.updates]
    if missing:
        raise ValueError(f"round {record.round} has no updates for {missing}")
    model_shape = np.shape(record.base_model)
    for pid in range(1, n + 1):
        shape = np.shape(record.updates[pid])
        if shape != model_shape:
            raise ValueError(
                f"participant {pid}: update shape {shape} does not match "
                f"model shape {model_shape}")
    return [record.base_model, *(record.updates[i] for i in range(1, n + 1))]


class RoundStack:
    """One round's base model and updates from parameter ``start`` on, cast
    to float64 once into one array, the base at row 0 and participant i's
    update at row i, for rebuilding many coalitions' models.

    A rebuild follows :func:`fedavg_aggregate`'s float64 operation order
    (the base, plus each member's weighted update in ascending id order, then
    one cast to float32), so it returns the same bits as
    :func:`reconstruct_submodel`.  Participants are 1..n, the keys of
    ``weights``; a coalition given as a bitmask has bit ``i - 1`` set iff
    participant ``i`` is in it.  Shapes are checked here, once
    (:func:`round_vectors`), and not on each rebuild.  Every operation is
    element-wise, so a stack from ``start`` rebuilds
    ``reconstruct_submodel(...)[start:]``, bit for bit, at the cost of the
    slice alone (on a wide test set, what follows the first layer's bias,
    possibly nothing: see ``models.LazyModel``).

    The empty coalition, with no members, rebuilds the base, bit for bit.
    On a stack of no columns, :meth:`rebuild` returns one shared read-only
    empty row, and sums nothing.

    Every coalition at once (:meth:`rebuild_chunks`) is rebuilt a block at a
    time: the 2^k consecutive masks from a multiple of 2^k, 2^k the largest
    power of two within :data:`CHUNK_ELEMENTS` values (at least one model,
    at most 2^n).  In a block, participant i's members are the rows whose
    bit i - 1 is set: below the block's size, every other run of 2^(i-1)
    rows, the strided view ``acc.reshape(-1, 2, 2**(i-1), P)[:, 1]``; at or
    above it, the whole block or none.  Each member row takes fl(w_i / W_S)
    u_i in place, in ascending id order, as :meth:`rebuild` adds it, so no
    row is gathered or scattered.

    Each block is summed under a ufunc buffer sized from the row's width
    (:func:`block_buffer`): numpy 2.4.6's buffered iteration copies the
    strided and broadcast operands a buffer at a time, and at the default
    buffer of 8,192 values that copying, not the arithmetic, costs most of
    the block (a (128, 170) strided add took 32 us at the default and 18 us
    at 256 values, a contiguous one 8 us at both).  The size is set for the
    block alone and restored before it is yielded, also when the block
    raises, so no caller's operation runs under it.  Only element-wise
    operations, one cast and an exact ``min`` run in a block, so the buffer
    cannot change a bit.
    """

    def __init__(self, record: RoundRecord, weights: Mapping[int, int],
                 start: int = 0):
        vectors = round_vectors(record, weights)
        n, size = len(weights), len(record.base_model[start:])
        # each row is cast into place: no other copy of the updates is made
        self._rows = np.empty((n + 1, size))
        for row, vector in zip(self._rows, vectors):
            row[:] = vector[start:]
        self._weights = [weights[i] for i in range(1, n + 1)]
        # fl(w_i), row i's weight as w_i / W_S casts it (row 0, the base,
        # always takes 1)
        self._float_weights = np.array([1.0, *map(float, self._weights)])
        # a rebuild of this many members or more gathers its rows; past
        # GATHER_PARAMS values, none does
        self._gather_from = GATHER_MEMBERS if size <= GATHER_PARAMS else n + 1
        # coalition totals are summed exactly, in int64 while every total fits
        self._total_type = np.int64 if sum(self._weights) < 1 << 63 else object
        # rebuild_chunks' block: the largest power of two of rows within
        # CHUNK_ELEMENTS values, at least one
        self._block_rows = 1 << (max(1, CHUNK_ELEMENTS // max(size, 1)).bit_length() - 1)
        # the ufunc buffer each block is summed under
        self._buffer = block_buffer(size)
        # (w_i / W) * u_i of the member being added, reused by every rebuild
        self._scaled = np.empty_like(self._rows[0])

    def rebuild(self, ids: Sequence[int]) -> np.ndarray:
        """Model of the coalition ``ids``: ascending, in 1..n (none: the base).

        A coalition of at least :data:`GATHER_MEMBERS` members of a model of
        at most :data:`GATHER_PARAMS` values gathers its rows, scales them
        and sums them in one reduction; any other adds its members one at a
        time, which is faster there.  The reduction starts from -0.0, the
        one value whose sum with the base is the base itself, signed zeros
        included, so both give the same bits."""
        if not self._rows.shape[1]:
            return _NO_VALUES
        total = coalition_total(self._weights[i - 1] for i in ids) if ids else None
        if len(ids) >= self._gather_from:
            members = np.array((0, *ids))
            scales = self._float_weights[members] / total
            scales[0] = 1.0
            rows = self._rows[members]
            rows *= scales[:, None]
            return np.add.reduce(rows, axis=0, initial=-0.0).astype(np.float32)
        acc = self._rows[0].copy()
        scaled = self._scaled
        for i in ids:
            np.multiply(self._weights[i - 1] / total, self._rows[i], out=scaled)
            acc += scaled
        return acc.astype(np.float32)

    def rebuild_chunks(self, n: int) -> Iterator[np.ndarray]:
        """Models of every coalition of participants 1..n (masks 0 to
        2^n - 1), in mask order, a block at a time (float32, a row per
        model; see the class docstring).  No view holds the first block's
        row 0, the empty coalition's: it stays the base.  Each block is summed
        under :func:`block_buffer`'s ufunc buffer for the row's width (256
        values from 128 to 256, the width rounded up to a multiple of 16 up
        to 2,048, the caller's for any other), for that block alone: the
        caller's is back before the block is yielded, and no bit depends on
        it."""
        if not 1 <= n <= len(self._weights):
            raise ValueError(f"n must be in 1..{len(self._weights)}, got {n}")
        rows = min(self._block_rows, 1 << n)
        scratch = np.empty(rows * self._rows.shape[1])
        for start in range(0, 1 << n, rows):
            old = np.setbufsize(self._buffer) if self._buffer else None
            try:
                block = self._rebuild_block(start, rows, n, scratch)
            finally:
                if old is not None:
                    np.setbufsize(old)
            yield block

    def _rebuild_block(self, start: int, rows: int, n: int,
                       scratch: np.ndarray) -> np.ndarray:
        def members(a: np.ndarray, i: int) -> np.ndarray | None:
            # the rows of ``a`` (a value or a model per mask) that hold i
            bit = 1 << (i - 1)
            if bit < rows:
                return a.reshape(rows // (2 * bit), 2, bit, *a.shape[1:])[:, 1]
            return a if start & bit else None

        # models.coalition_total's rule, vectorised: exact integer totals
        # (Python ints past int64), each cast to float64 once
        totals = np.zeros(rows, dtype=self._total_type)
        for i, w in enumerate(self._weights[:n], start=1):
            held = members(totals, i)
            if held is not None:
                held += w
        totals = totals.astype(np.float64)
        # every coalition but the empty one, the first block's row 0, weighs something
        if totals[int(start == 0):].min(initial=1.0) <= 0:
            raise ValueError("total coalition weight must be positive")
        acc = np.empty((rows, self._rows.shape[1]))
        acc[:] = self._rows[0]
        for i, (w, update) in enumerate(zip(self._weights[:n], self._rows[1:]), start=1):
            held = members(acc, i)
            if held is not None:
                scales = float(w) / members(totals, i)
                held += np.multiply(scales[..., None], update,
                                    out=scratch[:held.size].reshape(held.shape))
        return acc.astype(np.float32)


def run_federation(participants: list[Participant], arch: ModelArchitecture,
                   cfg: TrainConfig, rounds: int, init_seed: int) -> GradientLog:
    """Full-participation FedAvg for ``rounds`` rounds.

    ``init_seed`` fixes the starting model; local-training shuffles use a
    per-round seed derived from ``cfg.seed`` shared by all participants, so
    identically configured participants produce identical updates.
    Participants whose datasets have one length visit the same batch
    positions, so each round trains them together (``models._train_stacked``),
    in groups of at most :data:`CHUNK_ELEMENTS` float64 parameters,
    whose datasets are stacked once per run.  A round whose training
    diverges, or whose updates or aggregate overflow float32, is a
    RuntimeError that names it.
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
    by_length: dict[int, list[int]] = {}
    for pid in ids:
        by_length.setdefault(weights[pid], []).append(pid)
    cap = max(1, CHUNK_ELEMENTS // arch.param_count)
    groups = [members[start:start + cap] for members in by_length.values()
              for start in range(0, len(members), cap)]

    base = init_params(arch, derive_seed(init_seed, "init"))
    # the datasets are fixed, and every base fits arch: a set that cannot
    # train fails the first round
    for pid in ids:
        data = by_id[pid].dataset
        try:
            check_training(arch, base, data)
        except ValueError as exc:
            raise RuntimeError(f"round 0, participant {pid}: {exc}") from exc
    # the datasets are fixed: each group's are stacked once, for every round
    stacks = [_stack_datasets([by_id[pid].dataset for pid in group]) for group in groups]
    records: list[RoundRecord] = []
    # training that diverges, and an update or aggregate past float32's
    # range, are refused below, so numpy's warnings on the way are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(rounds):
            round_cfg = dataclasses.replace(cfg, seed=derive_seed(cfg.seed, "round", t))
            updates = dict.fromkeys(ids)  # in ascending id order
            for group, (features, labels) in zip(groups, stacks):
                try:
                    trained = _train_stacked(arch, base, features, labels, round_cfg)
                except Exception as exc:
                    raise RuntimeError(f"round {t}, participants {group}: {exc}") from exc
                for pid, local in zip(group, trained):
                    updates[pid] = gradient_update(local, base)
            aggregated = fedavg_aggregate(base, updates, weights)
            # an update past float32's range makes the aggregate infinite or
            # NaN (every weight is positive), so one check covers both
            if not np.isfinite(aggregated).all():
                raise RuntimeError(f"round {t}: an update or the aggregated model "
                                   "is past float32's range")
            records.append(RoundRecord(round=t, base_model=base, updates=updates,
                                       aggregated=aggregated))
            base = aggregated
    return GradientLog(architecture=arch, rounds=records,
                       participant_weights=weights)


def _f32(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype="<f4")


@contextlib.contextmanager
def _replacing(path: Path) -> Iterator[BinaryIO]:
    """A binary file to write beside ``path``, moved over ``path`` once it is
    written and closed, and removed if writing fails: ``path`` is read up to
    the move, so a log loaded from it can be saved over it."""
    part = path.with_name(f".{path.name}.{os.getpid()}.part")
    try:
        with part.open("wb") as out:
            yield out
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def save_log(log: GradientLog, path: str | Path,
             metadata: dict | None = None) -> Path:
    """Write the binary log plus a ``<path>.json`` metadata sidecar.

    The log is written a round at a time, under a running checksum, so no
    copy of the whole file is held.  Each file is written beside its target
    and then moved into place.  A round whose layout :func:`load_log` could
    not read back (:meth:`GradientLog._blocks`) is a ValueError that names
    it, and leaves no file."""
    path = Path(path)
    arch = log.architecture
    n, big_t = log.n, log.total_rounds
    with _replacing(path) as out:
        crc = 0

        def write(chunk) -> None:
            nonlocal crc
            out.write(chunk)
            crc = zlib.crc32(chunk, crc)

        write(LOG_HEADER.pack(LOG_MAGIC, LOG_FORMAT_VERSION, arch.input_dim,
                              arch.hidden_dim, arch.class_count, n, big_t))
        write(struct.pack(f"<{n}Q", *(log.participant_weights[pid]
                                      for pid in sorted(log.participant_weights))))
        for _, _, block in log._blocks():
            write(_f32(block))
            del block  # before the next is read
        out.write(struct.pack("<I", crc & 0xFFFFFFFF))

    sidecar = {"format_version": LOG_FORMAT_VERSION,
               "architecture": dataclasses.asdict(arch),
               "participants": n, "rounds": big_t,
               "metadata": metadata or {}}
    with _replacing(Path(f"{path}.json")) as out:
        out.write((json.dumps(sidecar, sort_keys=True, indent=2) + "\n").encode())
    return path


def _fill(src: BinaryIO, values: np.ndarray, where: str) -> np.ndarray:
    """``values``, read whole from ``src``: a short read means the file
    changed since its size was checked."""
    if src.readinto(values) != values.nbytes:
        raise LogFormatError(f"{where}: file changed while it was read")
    return values


# unsubscripted: typing keeps each subscripted alias, and so the class it
# names, for the life of the process
class StoredRounds(collections.abc.Sequence):
    """The rounds of a log :func:`load_log` checked, read from its file on
    every visit (``len``, iteration, ``[t]`` with negative ``t``).

    A visit reads the round's blocks into fresh float32 arrays, so edits to
    them do not persist, and checks them against the round's CRC32 taken at
    loading: a file changed or cut short since then fails with a
    :class:`LogFormatError` that names the round, and one moved or deleted
    with the ``OSError`` of opening it.  No block is held between visits.
    A visit opens the file ``path`` named at loading, wherever it runs."""

    def __init__(self, path: str | Path, n: int, param_count: int,
                 offsets: Sequence[int], crcs: Sequence[int]):
        self._path = path
        self._file = Path(path).absolute()
        self._n = n
        self._param_count = param_count
        self._offsets = tuple(offsets)
        self._crcs = tuple(crcs)

    def __len__(self) -> int:
        return len(self._crcs)

    def __iter__(self) -> Iterator[RoundRecord]:
        # the mixin's iterator keeps the round it yielded while it reads the
        # next; this one keeps none
        for t in range(len(self)):
            yield self[t]

    def __getitem__(self, t: int) -> RoundRecord:
        if not -len(self) <= t < len(self):
            raise IndexError(f"round {t} of a log of {len(self)} rounds")
        t %= len(self)
        where = f"{self._path}: round {t}"
        blocks, crc = [], 0
        with self._file.open("rb") as src:
            src.seek(self._offsets[t])
            for _ in range(self._n + 2):
                # each block is summed while it is still in cache
                values = _fill(src, np.empty(self._param_count, dtype="<f4"), where)
                crc = zlib.crc32(values, crc)
                blocks.append(values)
        if crc != self._crcs[t]:
            raise LogFormatError(f"{where}: checksum mismatch (the file changed "
                                 "after it was loaded)")
        return RoundRecord(round=t, base_model=blocks[0],
                           updates=dict(enumerate(blocks[1:-1], start=1)),
                           aggregated=blocks[-1])


def load_log(path: str | Path) -> GradientLog:
    """Read a log written by :func:`save_log`; verifies version and checksum.

    The header and the file's size are checked before any block is read.
    The blocks are then read once, a block at a time, under the file's
    running checksum and each round's own, and checked against the FedAvg
    chain (:class:`_Chain`, as :meth:`GradientLog.validate` checks them);
    the returned log's rounds are a :class:`StoredRounds`, which reads each
    round again when it is visited.  Once the checksum holds, a broken rule
    is a :class:`LogFormatError` worded as ``validate`` words it."""
    with Path(path).open("rb") as src:
        return _read_log(src, path)


def _read_log(src: BinaryIO, path: str | Path) -> GradientLog:
    size = os.fstat(src.fileno()).st_size
    head = LOG_HEADER.size
    if size < head + 4:
        raise LogFormatError(f"{path}: file too short to be a gradient log")
    header = src.read(head)
    magic, version, input_dim, hidden_dim, class_count, n, big_t = \
        LOG_HEADER.unpack(header)
    if magic != LOG_MAGIC:
        raise LogFormatError(f"{path}: bad magic {magic!r}")
    if version != LOG_FORMAT_VERSION:
        raise LogFormatError(
            f"{path}: format version {version}, this reader supports "
            f"{LOG_FORMAT_VERSION}")
    try:
        arch = ModelArchitecture(input_dim=input_dim, hidden_dim=hidden_dim,
                                 class_count=class_count)
    except ValueError as exc:
        raise LogFormatError(f"{path}: header describes no model: {exc}") from exc
    p = arch.param_count
    expected = head + 8 * n + big_t * (n + 2) * p * 4 + 4
    if size != expected:
        raise LogFormatError(
            f"{path}: expected {expected} bytes for n={n}, T={big_t}, "
            f"P={p}; found {size} (truncated or corrupt)")
    raw_weights = src.read(8 * n)
    crc = zlib.crc32(raw_weights, zlib.crc32(header))
    weights = dict(enumerate(struct.unpack(f"<{n}Q", raw_weights), start=1))
    chain = _Chain(weights, big_t)
    offsets, round_crcs = [], []
    values = np.empty(p, dtype="<f4")  # each block in turn
    for t in range(big_t):
        offsets.append(src.tell())
        round_crc = 0
        for k in range(n + 2):
            _fill(src, values, str(path))
            crc = zlib.crc32(values, crc)
            round_crc = zlib.crc32(values, round_crc)
            chain.add(t, k, values)
        round_crcs.append(round_crc)
    stored_crc = _fill(src, np.empty(1, dtype="<u4"), str(path))[0]
    if crc & 0xFFFFFFFF != stored_crc:
        raise LogFormatError(f"{path}: checksum mismatch")
    if chain.problem is not None:
        raise LogFormatError(f"{path}: {chain.problem}")
    return GradientLog(architecture=arch, participant_weights=weights,
                       rounds=StoredRounds(path, n, p, offsets, round_crcs))


def load_log_metadata(path: str | Path) -> dict:
    """Read the JSON sidecar written alongside a log."""
    sidecar = Path(str(path) + ".json")
    if not sidecar.exists():
        raise LogFormatError(f"no metadata sidecar at {sidecar}")
    try:
        return json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"{sidecar}: line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise LogFormatError(f"{sidecar}: not UTF-8 text: {exc}") from exc
