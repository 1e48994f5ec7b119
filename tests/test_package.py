"""The package's public surface: ``fedshapley.__all__``."""
from __future__ import annotations

import fedshapley


def test_public_names_resolve():
    names = fedshapley.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(fedshapley, name)] == []
    # removed from the API: the IDX loader, a wrapper of list(ESTIMATORS),
    # the prepared test-set type, now LabeledDataset.prepared, and the group
    # trainer, which run_federation no longer called
    for gone in ("load_idx", "estimator_names", "EvalSet", "eval_set", "train_group"):
        assert gone not in names and not hasattr(fedshapley, gone)
    assert not {"EvalSet", "eval_set", "train_group"} & set(vars(fedshapley.models))
    assert not hasattr(fedshapley.ConvergenceWindow, "history")
