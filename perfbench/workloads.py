"""The benchmark's workloads: coad configs built from a seed.

Each workload is a config mapping for ``coad.config_from``.  Its ``why``
names the layer it stresses; README.md maps each layer to the end-to-end
metric it should move on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass

# Methods whose sFDR is guaranteed to stay below alpha; `power`, `cdar` and
# the sFDR check are taken over the ones a workload runs.
GUARANTEED = ("COAD", "C_COAD", "PP_COAD", "C_PP_COAD")

# The A4 acceptance config (A4_BASE in tests/test_acceptance.py) minus its
# seed, which comes from --seed.
A4_BASE = {
    "dataset": "gaussian", "alpha": "0.1", "delta": "0.99", "eta": "1.0",
    "runs": "100", "steps": "200", "n": "1100",
    "anomaly_rate": "0.1", "anomaly_shift": "4.0",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict[str, str]
    # rows of O-RAN conflict data written as CSV plus schema at set-up;
    # 0 for the Gaussian oracle, which draws its data in the harness
    oran_samples: int = 0

    def mapping(self, seed: int) -> dict[str, str]:
        return dict(self.config, seed=str(seed))

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(self.config["method"].split(","))

    @property
    def guaranteed(self) -> tuple[str, ...]:
        return tuple(m for m in self.methods if m in GUARANTEED)

    @property
    def replicates(self) -> int:
        """Monte Carlo replicates (method x run) one repetition attempts."""
        return len(self.methods) * int(self.config["runs"])

    @property
    def detector_steps(self) -> int:
        return self.replicates * int(self.config["steps"])

    @property
    def reachable(self) -> bool:
        """Whether a real p-value can reach the threshold floor:
        1/(n+1) <= alpha * (1 - delta)."""
        n = int(self.config["n"])
        alpha = float(self.config["alpha"])
        delta = float(self.config["delta"])
        return 1.0 / (n + 1) <= alpha * (1.0 - delta)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mc-a4",
        why="many short streams: per-run fits, RNG derivation, Observation "
            "plumbing and 1,100-row batch scoring dominate; the threshold "
            "schedule stays tiny at 200 steps",
        # 20 of A4's 100 runs, so that three fresh-process repetitions fit
        # one measured run; every run has the A4 shape
        config=dict(A4_BASE, method="C_PP_COAD,COAD,PP_COAD,C_COAD",
                    runs="20"),
    ),
    Workload(
        name="long-stream",
        why="one 20k-step C_COAD stream: the growing detection history makes "
            "the fdr threshold schedule the largest layer; twin fitting and "
            "sampling are bypassed",
        config=dict(A4_BASE, method="C_COAD", runs="1", steps="20000"),
    ),
    Workload(
        name="csv-oran",
        why="O-RAN data through CSV ingest, splits, a 30-feature categorical "
            "imputer per run, MCAR masking and finite-table batches: the data "
            "layer dominates; the Gaussian workloads bypass it",
        # Scores of binary O-RAN rows tie often, so a guaranteed method
        # detects only when the test row beats its whole real batch.  Small
        # batches (alpha * (1 - delta) = 0.1 >= 1/(n+1) keeps that
        # reachable), long streams and a conflict on half the steps give
        # `power` enough detections to keep its spread across seeds near a
        # tenth; 140 batches of 10 fit the smallest calibration part.
        config={"dataset": "csv", "method": "C_COAD,C_PP_COAD,C_PO_COAD,FIXED",
                "alpha": "0.2", "delta": "0.5", "n": "10", "q_miss": "0.1",
                "anomaly_rate": "0.5", "runs": "20", "steps": "140"},
        oran_samples=5000,
    ),
)}
