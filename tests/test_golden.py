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
    "twin_train_size": "200", "val_size": "100", "synth_pool": "100",
}

STEPS_SHA256 = \
    "691be3f4e435ac2b0d7f8ca3881fa5dc0d926d57e9d5ec5a6b49d6c2cf87c9a5"
AGGREGATE_SHA256 = \
    "30dfafd3d16cd826b7035503349268e0071264a95626eb0f63c55cad74d3d509"


def test_emitted_csvs_match_golden_digests(tmp_path):
    paths = emit(run_benchmark(config_from(GOLDEN_CONFIG)), tmp_path)
    digest = {key: hashlib.sha256(paths[key].read_bytes()).hexdigest()
              for key in ("steps", "aggregate")}
    assert digest == {"steps": STEPS_SHA256, "aggregate": AGGREGATE_SHA256}
