"""The benchmark's per-layer tracer must find every name it patches.

``perfbench/spans.py`` wraps functions and methods of coad by attribute
name.  Installing it here makes a deleted or renamed traced name fail the
test suite, and uninstalling it must put every original back.
"""

import importlib.util
from pathlib import Path

import coad.core
import coad.data
import coad.fdr
import coad.harness
import coad.metrics
import coad.scoring

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

PATCHED = (coad.harness, coad.fdr, coad.data.Imputer, coad.fdr.DetectorState,
           coad.metrics.MetricsTracker, coad.scoring.ScoreModel,
           coad.scoring.DensityScore, coad.scoring.KMeansScore,
           coad.scoring.NaiveBayesScore, coad.core.Observation)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    return [dict(vars(owner)) for owner in PATCHED]


def test_install_patches_and_uninstall_restores():
    before = _snapshot()
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        during = _snapshot()
    finally:
        tracer.uninstall()
    after = _snapshot()

    for owner, old, new in zip(PATCHED, before, during):
        assert any(new[name] is not old[name] for name in old), \
            f"nothing of {owner.__name__} was traced"
    for owner, old, new in zip(PATCHED, before, after):
        assert new.keys() == old.keys(), owner.__name__
        changed = [name for name in old if new[name] is not old[name]]
        assert not changed, f"{owner.__name__} not restored: {changed}"
