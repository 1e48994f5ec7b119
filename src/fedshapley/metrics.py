"""Distance metrics against reference contribution vectors, plus report files.

Reports exist in two layers: ComparisonRow (one estimator scored against the
ground truth) and a JSON/CSV document bundling rows with run metadata.  Given
identical inputs the emitted bytes are identical; wall-clock fields are
faithful to their inputs but naturally vary between runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .models import check_types

REPORT_SCHEMA = "fedshapley-report-v1"
CSV_HEADER = ("estimator,cosine_distance,euclidean_distance,max_difference,"
              "eval_count,wall_time_s,log10_time")
WALL_TIME_FLOOR = 1e-9  # keeps log10 finite on sub-resolution timings


def _checked(truth, est) -> tuple[np.ndarray, np.ndarray]:
    """Both vectors (or their ``values``) as float64 arrays; ValueError unless
    they have one length and only finite values (max(0.0, nan) is 0.0)."""
    t, e = (np.asarray(getattr(v, "values", v), dtype=np.float64) for v in (truth, est))
    if t.shape != e.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {e.shape}")
    for name, vector in (("reference", t), ("estimate", e)):
        if not np.isfinite(vector).all():
            raise ValueError(f"{name} vector holds a value that is not finite")
    return t, e


def cosine_distance(truth, est) -> float:
    """1 - cos(truth, est); a zero estimate counts as fully orthogonal (1.0).

    The zero-estimate convention matters because truncation can legitimately
    produce all-zero estimates; a zero *reference* vector is rejected."""
    t, e = _checked(truth, est)
    t_norm = float(np.linalg.norm(t))
    if t_norm == 0.0:
        raise ValueError("reference vector must be nonzero")
    e_norm = float(np.linalg.norm(e))
    if e_norm == 0.0:
        return 1.0
    return max(0.0, 1.0 - float(t @ e) / (t_norm * e_norm))


def euclidean_distance(truth, est) -> float:
    t, e = _checked(truth, est)
    return float(np.linalg.norm(t - e))


def max_difference(truth, est) -> float:
    t, e = _checked(truth, est)
    return float(np.max(np.abs(t - e)))


@dataclass
class ComparisonRow:
    """One estimator's accuracy and cost against the ground truth."""

    estimator_name: str
    cosine_distance: float
    euclidean_distance: float
    max_difference: float
    eval_count: int
    wall_time_s: float
    log10_time: float

    def __post_init__(self) -> None:
        check_types(vars(self), ComparisonRow.__annotations__)
        for name in ("cosine_distance", "euclidean_distance", "max_difference"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.cosine_distance > 2.0:
            raise ValueError("cosine_distance cannot exceed 2")

    @classmethod
    def compare(cls, truth, report) -> "ComparisonRow":
        """Score an estimator report (name/total/eval_count/wall_time) vs truth."""
        wall = float(report.wall_time)
        return cls(estimator_name=report.name,
                   cosine_distance=cosine_distance(truth, report.total),
                   euclidean_distance=euclidean_distance(truth, report.total),
                   max_difference=max_difference(truth, report.total),
                   eval_count=report.eval_count,
                   wall_time_s=wall,
                   log10_time=math.log10(max(wall, WALL_TIME_FLOOR)))


def report_to_csv(rows: list[ComparisonRow]) -> str:
    if not rows:
        raise ValueError("no comparison rows to format")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.estimator_name},{r.cosine_distance!r},"
                     f"{r.euclidean_distance!r},{r.max_difference!r},"
                     f"{r.eval_count},{r.wall_time_s!r},{r.log10_time!r}")
    return "\n".join(lines) + "\n"


def build_report(rows: list[ComparisonRow], metadata: dict | None = None) -> dict:
    """JSON-ready document bundling comparison rows with run metadata."""
    if not rows:
        raise ValueError("a report needs at least one comparison row")
    return {"schema": REPORT_SCHEMA,
            "metadata": metadata or {},
            "rows": [asdict(r) for r in rows]}


def write_report(report: dict, out_dir: str | Path,
                 stem: str) -> tuple[Path, Path]:
    """Write ``<stem>.csv`` and ``<stem>.json`` under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{stem}.json"
    csv_path = out / f"{stem}.csv"
    json_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    rows = [ComparisonRow(**row) for row in report["rows"]]
    csv_path.write_text(report_to_csv(rows))
    return csv_path, json_path


def read_report(path: str | Path) -> dict:
    """Parse a report JSON, enforcing the schema tag and the row layout.

    Raises ValueError, naming the file, for anything that is not a report
    document with a ``rows`` list of comparison rows."""
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != REPORT_SCHEMA:
        raise ValueError(f"{path}: schema {schema!r}, this reader expects "
                         f"{REPORT_SCHEMA!r}")
    metadata = doc.get("metadata", {})
    if not (isinstance(metadata, dict)
            and isinstance(metadata.get("scenario", ""), str)):
        raise ValueError(f"{path}: 'metadata' must be an object, its scenario a string")
    rows = doc.get("rows")
    if not isinstance(rows, list):
        raise ValueError(f"{path}: needs a 'rows' list of comparison rows")
    for i, row in enumerate(rows):
        try:
            ComparisonRow(**row)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from None
    return doc
