"""Small Tables, toy CSV datasets, O-RAN rows as a CSV dataset and the
row-by-row CSV parser for the tests."""

import csv
import math
import warnings

import numpy as np

from coad.core import Table
from coad.oran import generate_oran, samples_to_csv, schema_text


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


def two_spread_csv(directory, **mapping) -> dict:
    """A two-context CSV dataset of one continuous feature and no
    anomalies, written to ``directory`` as a config mapping: 1,500 rows per
    context, N(0, 3^2) in context 0 and N(0, 0.3^2) in context 1."""
    rng = np.random.default_rng(0)
    lines = ["x,ctx,label"]
    for c, sd in ((0, 3.0), (1, 0.3)):
        lines += [f"{v:.6f},{c},0" for v in rng.normal(0.0, sd, 1500)]
    csv_path = directory / "spread.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    schema_path = directory / "spread.schema"
    schema_path.write_text(
        "feature.x = continuous\nlabel = label\nlabel.anomaly_values = 1\n"
        "context.column = ctx\ncontext.bins = 0.5\n")
    return dict({"dataset": "csv", "csv_path": str(csv_path),
                 "schema_path": str(schema_path)}, **mapping)


def oran_csv(directory, samples: int, anomaly_frac: float = 0.1,
             **mapping) -> dict:
    """``samples`` O-RAN rows of graph seed 0 and sample seed 1, written to
    ``directory`` as CSV and schema the way ``coad gen-oran`` writes them,
    as a config mapping."""
    graph, rows = generate_oran(0, 1, samples, anomaly_frac)
    csv_path = directory / "oran.csv"
    csv_path.write_text(samples_to_csv(graph, rows))
    schema_path = directory / "oran.schema"
    schema_path.write_text(schema_text(graph, rows))
    return dict({"dataset": "csv", "csv_path": str(csv_path),
                 "schema_path": str(schema_path)}, **mapping)


def load_csv_by_rows(path, schema) -> Table:
    """The row-by-row parser that ``coad.data.load_csv`` replaced: a header
    check, then a dict per record and one pass over its fields, failing at
    the first fault in file order, and last a check that each feature
    column holds an observed value.  The oracle of the column-wise
    reader."""
    codebooks = {name: {v: i for i, v in enumerate(schema.categories[name])}
                 for name, kind in schema.features
                 if kind == "categorical" and name in schema.categories}
    records = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        needed = [name for name, _ in schema.features] + [schema.label]
        if schema.context_column is not None:
            needed.append(schema.context_column)
        for name in needed if header is not None else ():
            if name not in header:
                raise ValueError(f"{path}: no column {name!r} in the header")
            if header.count(name) > 1:
                raise ValueError(f"{path}: column {name!r} is named "
                                 f"{header.count(name)} times in the header")
        # the header is line 1; blank records are skipped uncounted
        for rownum, row in enumerate(filter(None, reader), start=2):
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, "
                                     f"got {len(row)}")
                fields = dict(zip(header, map(str.strip, row)))
                records.append(_parse_row(fields, schema, codebooks))
            except (KeyError, ValueError) as exc:
                raise ValueError(
                    f"{path}: malformed row {rownum}: {exc}") from exc
    if header is None:
        warnings.warn(f"{path}: empty file, no rows loaded", stacklevel=2)
    elif not records:
        warnings.warn(f"{path}: no data rows", stacklevel=2)
    d = len(schema.features)
    matrix = np.array(records, dtype=float).reshape(len(records), d + 2)
    for j, (name, _) in enumerate(schema.features):
        if records and np.isnan(matrix[:, j]).all():
            raise ValueError(f"{path}: column {name!r} holds no observed "
                             "value")
    return Table(matrix[:, :d], schema.context_of(matrix[:, d]),
                 matrix[:, d + 1])


def _parse_row(fields, schema, codebooks) -> list[float]:
    """A record's feature values (NaN where missing), its context-column
    value (-inf without a context column) and its 0/1 label."""
    values = []
    for name, kind in schema.features:
        token = fields[name]
        if token in schema.missing_tokens:
            values.append(math.nan)
        elif kind == "continuous":
            values.append(_finite(token, f"column {name!r}"))
        elif name in schema.categories:
            values.append(codebooks[name].get(token, math.nan))
        else:
            book = codebooks.setdefault(name, {})
            values.append(book.setdefault(token, len(book)))
    label = float(fields[schema.label] in schema.anomaly_values)
    name = schema.context_column
    if name is None:
        return values + [-math.inf, label]
    if fields[name] in schema.missing_tokens:
        raise ValueError(f"context column {name!r} is missing")
    return values + [_finite(fields[name], f"context column {name!r}"), label]


def _finite(token: str, what: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{what}: non-finite value {token!r}")
    return value
