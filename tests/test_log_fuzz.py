"""Log fuzzing: truncated and bit-flipped ``.gtgl`` files.

Every damaged file must make ``load_log`` raise ``LogFormatError`` and
nothing else, and make ``fedshapley evaluate`` exit 2 with one line on
stderr and no traceback.  A file damaged after it was loaded fails when the
damaged round is read.
"""
from __future__ import annotations

import json
import re
import shutil
import struct
import zlib
from pathlib import Path

import pytest

from fedshapley import LogFormatError, cli, load_log
from fedshapley.cli import CONFIG_SCHEMA, EXIT_OK, EXIT_RUNTIME, main

HEAD = struct.calcsize("<4sH5I")
HEADER_FIELDS = ["magic", "version", "input_dim", "hidden_dim", "class_count",
                 "n", "rounds"]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A fresh simulate output (n=3, T=2, hidden layer) and its sections,
    as (name, start, end) byte ranges in file order."""
    out = tmp_path_factory.mktemp("fuzz")
    config = out / "exp.json"
    config.write_text(json.dumps({
        "schema": CONFIG_SCHEMA, "seed": 2, "rounds": 2,
        "source": {"input_dim": 4, "class_count": 3},
        "scenario": {"kind": "same_dist_same_size", "n": 3},
        "model": {"hidden_dim": 2},
        "data": {"train_per_class": 6, "test_per_class": 2},
    }))
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    (log,) = out.glob("*.gtgl")
    raw = log.read_bytes()
    _, _, d, h, c, n, rounds = struct.unpack_from("<4sH5I", raw)
    block = 4 * (d * h + h + h * c + c)

    sections = []
    offsets = [0, 4, 6, 10, 14, 18, 22, HEAD]
    for name, start, end in zip(HEADER_FIELDS, offsets, offsets[1:]):
        sections.append((f"header.{name}", start, end))
    sections.append(("weights", HEAD, HEAD + 8 * n))
    at = HEAD + 8 * n
    for t in range(rounds):
        for part in ["base"] + [f"update{i}" for i in range(1, n + 1)] + ["aggregated"]:
            sections.append((f"round{t}.{part}", at, at + block))
            at += block
    sections.append(("crc", at, at + 4))
    assert at + 4 == len(raw)
    return log, raw, sections


def damaged_files(run):
    """(label, bytes): the file cut at every section boundary, and one byte
    flipped in every section (every byte of the header)."""
    _, raw, sections = run
    for name, start, _ in sections:
        yield f"cut before {name}", raw[:start]
    for name, start, end in sections:
        spots = range(start, end) if name.startswith("header") else [(start + end) // 2]
        for at in spots:
            flipped = bytearray(raw)
            flipped[at] ^= 0xFF
            yield f"flip {name} byte {at - start}", bytes(flipped)


def test_sections_cover_the_file(run):
    _, raw, sections = run
    assert sections[0][1] == 0 and sections[-1][2] == len(raw)
    assert all(a[2] == b[1] for a, b in zip(sections, sections[1:]))
    assert len(list(damaged_files(run))) > 2 * len(sections)


def test_damaged_logs_raise_only_log_format_errors(run, tmp_path):
    path = tmp_path / "damaged.gtgl"
    for _, data in damaged_files(run):
        path.write_bytes(data)
        with pytest.raises(LogFormatError):
            load_log(path)


def header_with(raw: bytes, **fields) -> bytes:
    """``raw`` with header fields replaced and the checksum repaired."""
    values = dict(zip(HEADER_FIELDS, struct.unpack_from("<4sH5I", raw)))
    values.update(fields)
    out = bytearray(raw)
    struct.pack_into("<4sH5I", out, 0, *values.values())
    struct.pack_into("<I", out, len(out) - 4, zlib.crc32(out[:-4]) & 0xFFFFFFFF)
    return bytes(out)


@pytest.mark.parametrize("fields", [
    {"input_dim": 0}, {"class_count": 1}, {"class_count": 0},
    {"n": 1 << 31}, {"rounds": 0},
], ids=lambda f: ",".join(f"{k}={v}" for k, v in f.items()))
def test_impossible_header_fields_are_format_errors(run, tmp_path, fields):
    path = tmp_path / "header.gtgl"
    path.write_bytes(header_with(run[1], **fields))
    with pytest.raises(LogFormatError, match=f"^{re.escape(str(path))}: "):
        load_log(path)


def test_evaluate_exits_two_on_every_damaged_log(run, tmp_path, capsys):
    log, _, _ = run
    for i, (label, data) in enumerate(damaged_files(run)):
        path = tmp_path / f"damaged{i}.gtgl"
        path.write_bytes(data)
        shutil.copyfile(f"{log}.json", f"{path}.json")
        code = main(["evaluate", "--log", str(path), "--estimator", "mr",
                     "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME, label
        assert len(err.splitlines()) == 1 and err.startswith("error: "), label
        assert "Traceback" not in err, label
    assert not Path(tmp_path / "out").exists()


def round_sections(run, t: int):
    """(start, end) byte ranges of round ``t``'s blocks."""
    return [(start, end) for name, start, end in run[2]
            if name.startswith(f"round{t}.")]


def test_a_round_changed_after_loading_fails_alone(run, tmp_path):
    raw = run[1]
    rounds = struct.unpack_from("<4sH5I", raw)[-1]
    path = tmp_path / "changed.gtgl"
    path.write_bytes(raw)
    loaded = load_log(path)
    saved = [rec.aggregated.tobytes() for rec in loaded.rounds]
    for t in range(rounds):
        for start, end in round_sections(run, t):
            flipped = bytearray(raw)
            flipped[(start + end) // 2] ^= 0xFF
            path.write_bytes(flipped)
            for at in (t, t - rounds):
                with pytest.raises(LogFormatError, match=f"^{re.escape(str(path))}: "
                                   f"round {t}: checksum mismatch"):
                    loaded.rounds[at]
            assert [loaded.rounds[u].aggregated.tobytes()
                    for u in range(rounds) if u != t] == saved[:t] + saved[t + 1:]
    # a cut inside round t: the rounds before it read, the others fail
    for t in range(rounds):
        start, end = round_sections(run, t)[1]
        path.write_bytes(raw[:(start + end) // 2])
        assert [loaded.rounds[u].aggregated.tobytes() for u in range(t)] == saved[:t]
        for u in range(t, rounds):
            with pytest.raises(LogFormatError, match=f"round {u}: file changed "
                               "while it was read"):
                loaded.rounds[u]
    path.unlink()
    with pytest.raises(FileNotFoundError):
        loaded.rounds[0]


@pytest.mark.parametrize("damage", ["cut", "flipped", "deleted"])
def test_evaluate_exits_two_when_the_log_changes_after_it_is_checked(
        run, tmp_path, capsys, monkeypatch, damage):
    # the log is damaged once it is loaded, validated and checked against its
    # sidecar's config: the estimator's own read of the round fails
    log, raw, _ = run
    path = tmp_path / "run.gtgl"
    path.write_bytes(raw)
    shutil.copyfile(f"{log}.json", f"{path}.json")
    checked = cli._experiment_of

    def check_then_damage(*args):
        found = checked(*args)
        if damage == "cut":
            path.write_bytes(raw[:len(raw) // 2])
        elif damage == "flipped":
            flipped = bytearray(raw)
            flipped[-8] ^= 0xFF  # in the last round's aggregated block
            path.write_bytes(flipped)
        else:
            path.unlink()
        return found

    monkeypatch.setattr(cli, "_experiment_of", check_then_damage)
    for estimator in ("gtg", "mr"):
        code = main(["evaluate", "--log", str(path), "--estimator", estimator,
                     "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME, estimator
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert str(path) in err and "Traceback" not in err, err
        assert not (tmp_path / "out").exists()
        path.write_bytes(raw)
