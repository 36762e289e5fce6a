"""Small Tables for the unit tests."""

import numpy as np

from coad.core import Table


def table(values, context=0, truth=0) -> Table:
    """One row per value, a scalar or a feature vector, all of one context
    and one label."""
    features = np.array([np.atleast_1d(v) for v in values], dtype=float)
    return Table(features, np.full(len(features), context),
                 np.full(len(features), truth))


def concat(*tables: Table) -> Table:
    """The rows of ``tables``, in order."""
    return Table(*(np.concatenate(column) for column in zip(
        *((t.features, t.context, t.truth) for t in tables))))
