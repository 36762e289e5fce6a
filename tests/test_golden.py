"""Golden parity: the emitted steps/aggregate CSVs of a pinned config.

The config runs all seven methods with MCAR masking on, at a reachable
threshold (1/(n+1) <= alpha * (1 - delta)), so every method detects and the
active methods both query and skip real batches.

The digests were taken with numpy 2.4.6.  They change only when the RNG
streams or the arithmetic of a step change on purpose; such a change updates
them once and records why in CHANGES.md.
"""

import hashlib

from coad.harness import config_from, emit, run_benchmark

GOLDEN_CONFIG = {
    "method": "all", "dataset": "gaussian", "runs": "3", "steps": "40",
    "seed": "7", "alpha": "0.2", "delta": "0.5", "n": "60", "q_miss": "0.2",
    "twin_var_scale": "0.5", "score_train_size": "200",
    "twin_train_size": "200", "val_size": "100",
}

STEPS_SHA256 = \
    "b0e2ba06da92cc3761cf596bf7efae55221cf4de745a1c8f3f058ee40ea56bd5"
AGGREGATE_SHA256 = \
    "21fe7eddc2bc5b71ec1364c4af3f5c900577bf216e87d4ec9d6ec5c208e1a32c"


def test_emitted_csvs_match_golden_digests(tmp_path):
    paths = emit(run_benchmark(config_from(GOLDEN_CONFIG)), tmp_path)
    digest = {key: hashlib.sha256(paths[key].read_bytes()).hexdigest()
              for key in ("steps", "aggregate")}
    assert digest == {"steps": STEPS_SHA256, "aggregate": AGGREGATE_SHA256}
