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
    "2d5733a6ecaf306333688e7ef6800df0ac9a4de9a32032339856cbc40a8c2427"
AGGREGATE_SHA256 = \
    "a662b8adbb829214de210f3243c703e0a8bd605cefe4fc022f4f36600b832fee"


def test_emitted_csvs_match_golden_digests(tmp_path):
    paths = emit(run_benchmark(config_from(GOLDEN_CONFIG)), tmp_path)
    digest = {key: hashlib.sha256(paths[key].read_bytes()).hexdigest()
              for key in ("steps", "aggregate")}
    assert digest == {"steps": STEPS_SHA256, "aggregate": AGGREGATE_SHA256}
