"""Validated configs never fail inside a run: over small Gaussian configs,
``config_from`` either rejects the config with a ValueError that names a
key, or ``run_benchmark`` completes."""

import re
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from coad.conformal import GAMMA_MAX
from coad.harness import SCORE_KINDS, MethodVariant, config_from, run_benchmark


def _around(valid, invalid):
    """Mostly valid values, sometimes one just past the bound."""
    return st.sampled_from([*map(str, valid)] * 4 + [*map(str, invalid)])


def _size(bound: int, top: int):
    return _around(range(bound, top + 1), [bound - 1])


def _optional(values):
    return st.one_of(st.just("none"), values)


CONFIGS = st.fixed_dictionaries({
    "method": st.lists(st.sampled_from([m.value for m in MethodVariant]),
                       min_size=1, max_size=3, unique=True).map(",".join),
    "score": st.sampled_from(SCORE_KINDS),
    "dataset": st.just("gaussian"),
    "runs": st.just("1"),
    "steps": _size(1, 5),
    "seed": st.integers(0, 2**16).map(str),
    "n": _optional(_size(1, 4)),
    "n_tilde": _optional(_size(1, 4)),
    "contexts": _size(1, 3),
    "dim": _size(1, 3),
    "gmm_components": _size(1, 3),
    "kmeans_k": _size(1, 4),
    # the fit guards' bounds depend on contexts, kmeans_k and gmm_components
    "score_train_size": _size(0, 24),
    "twin_train_size": _size(0, 24),
    "val_size": _size(0, 6),
    "synth_pool": _size(1, 4),
    "anomaly_rate": _around([0, 0.1, 0.5, 0.9], [1]),
    "q_miss": _around([0, 0.3, 0.9], [1]),
    "twin_var_scale": _around([0, 0.5, 1], [-1]),
    "gamma_override": _optional(_around([0.01, 1, GAMMA_MAX],
                                        [0, 2 * GAMMA_MAX])),
})


@settings(deadline=None, max_examples=300)
@given(CONFIGS)
def test_config_is_rejected_by_name_or_runs(mapping):
    try:
        cfg = config_from(mapping)
    except ValueError as exc:
        named = {key for key in mapping
                 if re.search(rf"\b{key}\b", str(exc))}
        assert named, f"rejection names no key: {exc}"
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_benchmark(cfg)
