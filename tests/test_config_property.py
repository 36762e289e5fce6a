"""Validated configs never fail inside a run without naming the cause:
over small Gaussian and toy CSV configs, ``config_from`` either
rejects the config with a ValueError that names a key, or
``run_benchmark`` completes, or -- on a table dataset, whose rows are known
only at run time -- it fails with a ValueError that names a key or the
context, class or calibration part at fault."""

import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coad.conformal import GAMMA_MAX
from coad.harness import (SCORE_KINDS, MethodVariant, _RunFailure,
                          config_from, run_benchmark)
from tables import toy_csv_both_contexts


def _around(valid, invalid):
    """Mostly valid values, sometimes one just past the bound."""
    return st.sampled_from([*map(str, valid)] * 4 + [*map(str, invalid)])


def _size(bound: int, top: int):
    return _around(range(bound, top + 1), [bound - 1])


def _optional(values):
    return st.one_of(st.just("none"), values)


# the keys every dataset reads
COMMON = {
    "method": st.lists(st.sampled_from([m.value for m in MethodVariant]),
                       min_size=1, max_size=3, unique=True).map(",".join),
    "score": st.sampled_from(SCORE_KINDS),
    "runs": st.just("1"),
    "steps": _size(1, 5),
    "seed": st.integers(0, 2**16).map(str),
    "n": _optional(_size(1, 4)),
    "n_tilde": _optional(_size(1, 4)),
    "gmm_components": _size(1, 3),
    "kmeans_k": _size(1, 4),
    "synth_pool": _size(1, 4),
    "anomaly_rate": _around([0, 0.1, 0.5, 0.9], [1]),
    "q_miss": _around([0, 0.3, 0.9], [1]),
    "gamma_override": _optional(_around([0.01, 1, GAMMA_MAX],
                                        [0, 2 * GAMMA_MAX])),
}

CONFIGS = st.fixed_dictionaries(dict(
    COMMON,
    dataset=st.just("gaussian"),
    contexts=_size(1, 3),
    dim=_size(1, 3),
    # the fit guards' bounds depend on contexts, kmeans_k and gmm_components
    score_train_size=_size(0, 24),
    twin_train_size=_size(0, 24),
    val_size=_size(0, 6),
    twin_var_scale=_around([0, 0.5, 1], [-1]),
))

# the toy CSV's paths are filled in by the test
TABLE_CONFIGS = st.fixed_dictionaries(dict(COMMON, dataset=st.just("csv")))


def _named_keys(mapping, text: str) -> set[str]:
    return {key for key in mapping if re.search(rf"\b{key}\b", text)}


def _rejected_by_name_or_runs(mapping) -> None:
    try:
        cfg = config_from(mapping)
    except ValueError as exc:
        assert _named_keys(mapping, str(exc)), \
            f"rejection names no key: {exc}"
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_benchmark(cfg)


@settings(deadline=None, max_examples=300)
@given(CONFIGS)
def test_config_is_rejected_by_name_or_runs(mapping):
    _rejected_by_name_or_runs(mapping)


@pytest.fixture(scope="module")
def toy_paths(tmp_path_factory):
    # anomalies in both contexts, so that context-aware supervised fits
    # complete
    return toy_csv_both_contexts(tmp_path_factory.mktemp("toy"))


@settings(deadline=None, max_examples=200)
@given(TABLE_CONFIGS)
def test_table_config_is_rejected_by_name_runs_or_names_its_cause(
        toy_paths, mapping):
    mapping = dict(mapping, csv_path=toy_paths["csv_path"],
                   schema_path=toy_paths["schema_path"])
    try:
        _rejected_by_name_or_runs(mapping)
    except (ValueError, _RunFailure) as exc:
        # a failure inside a run is named by method, run and seed; its
        # cause must name what about the data is at fault
        cause = exc.__cause__ if isinstance(exc, _RunFailure) else exc
        text = str(cause)
        assert isinstance(cause, ValueError), f"not a ValueError: {exc!r}"
        assert _named_keys(mapping, text) or re.search(
            r"\b(context|class|calibration)\b", text), \
            f"failure names no key, context, class or calibration: {exc}"
