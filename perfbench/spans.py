"""Per-layer tracing from outside the program.

The tracer replaces the public functions that ``coad.harness`` and
``coad.fdr`` look up by module-global name, plus a few public methods, with
wrappers that open a span around each call.  Open spans live on a stack of
(name, start, child time) frames; when a span closes, its duration minus
the time its child spans covered is added to the layer's self time, and its
whole duration is added to the parent's child time.  Only these per-layer
totals are kept, so memory stays constant however many calls are traced.

Self times of all spans inside one root span add up to the root's duration
exactly, which is the check that no time is lost or counted twice.
"""

from __future__ import annotations

from time import perf_counter


class _Stat:
    __slots__ = ("calls", "self_s", "rows")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.rows: int | None = None  # counted only where a layer has rows


def _batch_rows(args, kwargs, result):
    """Row count of a ``scores(self, xs, context)`` batch."""
    return len(args[1])


def _one_row(args, kwargs, result):
    return 1


def _result_len(args, kwargs, result):
    return len(result)


class Tracer:
    """Span stack and per-layer counters for one traced repetition."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stat(self, name: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    def wrap(self, name: str, fn, rows=None):
        """Return ``fn`` with a span named ``name`` around each call.

        ``rows(args, kwargs, result)``, when given, counts the rows a call
        handled.

        A call made while a span of the same name is already innermost (for
        example ``ScoreModel.score`` calling ``scores``) is part of that
        span and is neither timed nor counted again.
        """
        stack = self._stack
        stat = self._stat(name)
        if rows is not None:
            stat.rows = 0

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if rows is not None:
                stat.rows += rows(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every traced call site; ``uninstall`` puts the originals back."""
        import coad.core
        import coad.data
        import coad.fdr
        import coad.harness as h
        import coad.metrics
        import coad.scoring

        spans = {
            "harness.rng": ("derive_rng",),
            "harness.assembly": ("gaussian_synthetic_stream", "table_run"),
            "data.splits": ("make_splits", "build_stream"),
            "data.impute": ("impute",),
            "data.mcar": ("apply_mcar_mask",),
            "scoring.fit": ("fit_density_score", "fit_kmeans_score",
                            "fit_supervised_score", "fit_fixed_threshold"),
            "twin.fit": ("fit_twin",),
            "twin.gamma": ("proxy_pvalues", "positive_ecdf_gap",
                           "gamma_of_context"),
            "fdr.step": ("step",),
            "metrics.aggregate": ("aggregate",),
        }
        for name, attrs in spans.items():
            for attr in attrs:
                self._patch(h, attr, self.wrap(name, getattr(h, attr)))
        self._patch(h, "load_csv", self.wrap("data.load_csv", h.load_csv,
                                             rows=_result_len))
        self._patch(h, "sample_synthetic",
                    self.wrap("twin.sample", h.sample_synthetic,
                              rows=_result_len))

        fdr = coad.fdr
        self._patch(fdr, "conformal_pvalue",
                    self.wrap("conformal.pvalue", fdr.conformal_pvalue))
        self._patch(fdr, "active_outcome",
                    self.wrap("conformal.acquire", fdr.active_outcome))
        self._patch(fdr, "next_threshold",
                    self.wrap("fdr.threshold", fdr.next_threshold))

        imputer = coad.data.Imputer
        fit = vars(imputer)["fit"].__func__
        self._patch(imputer, "fit",
                    classmethod(self.wrap("data.imputer_fit", fit)))
        self._patch(coad.fdr.DetectorState, "record",
                    self.wrap("fdr.record", coad.fdr.DetectorState.record))
        self._patch(coad.metrics.MetricsTracker, "update",
                    self.wrap("metrics.update",
                              coad.metrics.MetricsTracker.update))
        scoring = coad.scoring
        self._patch(scoring.ScoreModel, "score",
                    self.wrap("scoring.scores", scoring.ScoreModel.score,
                              rows=_one_row))
        for model in (scoring.DensityScore, scoring.KMeansScore,
                      scoring.NaiveBayesScore):
            self._patch(model, "scores",
                        self.wrap("scoring.scores", model.scores,
                                  rows=_batch_rows))
        observation = coad.core.Observation
        self._patch(observation, "__post_init__",
                    self._counter("core.observations",
                                  observation.__post_init__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
