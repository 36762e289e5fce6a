"""Small Tables and a toy CSV dataset for the tests."""

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


def toy_csv(directory, **mapping) -> dict:
    """A two-context CSV dataset with its schema, written to ``directory``,
    as a config mapping.  Its 40 anomalies (every tenth row) all fall in
    context 0."""
    return _toy_csv(directory, lambda i: i % 10 == 0, mapping)


def toy_csv_both_contexts(directory, **mapping) -> dict:
    """``toy_csv`` with its 40 anomalies split evenly between the two
    contexts, so that a context-aware supervised score can be fit."""
    return _toy_csv(directory, lambda i: i % 20 in (0, 5), mapping)


def _toy_csv(directory, anomalous, mapping) -> dict:
    rng = np.random.default_rng(0)
    lines = ["x0,x1,age,label"]
    for i in range(400):
        age = 25.0 if i % 2 == 0 else 75.0
        mu = 0.0 if age < 50 else 5.0
        x = rng.normal(mu, 1.0, 2)
        label = 0
        if anomalous(i):
            x += 6.0
            label = 1
        lines.append(f"{x[0]:.6f},{x[1]:.6f},{age},{label}")
    csv_path = directory / "toy.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    schema_path = directory / "toy.schema"
    schema_path.write_text(
        "feature.x0 = continuous\nfeature.x1 = continuous\n"
        "label = label\nlabel.anomaly_values = 1\n"
        "context.column = age\ncontext.bins = 50\n")
    return dict({"dataset": "csv", "seed": "1", "csv_path": str(csv_path),
                 "schema_path": str(schema_path)}, **mapping)
