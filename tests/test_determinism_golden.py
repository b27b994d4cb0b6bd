"""Golden-hash determinism: the fast path is bit-identical to the seed.

These hashes were captured on the tree *before* the ``repro.perf`` hot-path
overhaul landed (commit 4bc651e) by hashing the canonical JSON of full
seeded experiment outputs.  Every event-ordering or RNG-draw change — event
pooling, the direct ``yield delay`` timers, incremental conditions, the
scheduler's zero-copy WST read — must leave them untouched; a mismatch
means observable behaviour drifted and is a bug, not a baseline refresh.

If a future PR *intentionally* changes simulated behaviour (new feature,
model fix), re-capture with::

    PYTHONPATH=src python -c "from repro.perf.golden import *; \
        print(cell_fingerprint(), sec7_fingerprint(), fig13_fingerprint())"

and say so in the PR description.
"""

import pytest

from repro.perf.golden import (cell_fingerprint, fig13_fingerprint,
                               fleet_fingerprint, sec7_fingerprint)

# The golden entry points must stay off deprecated wrappers: any
# DeprecationWarning raised while producing a fingerprint is a failure.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

# Captured at commit 4bc651e (pre-fast-path).
GOLDEN_CELL = \
    "674aa299288e18712c969fd70e0eb7d735b72a054748505079673b5bff029f56"
GOLDEN_SEC7 = \
    "a27380be660b98c8a0d8822868180001bb97d830e444f0545a8d19b4099e3ed4"
GOLDEN_FIG13 = \
    "3b62c785c27feaeae6f24e01377d3051db7ef0b70b729c63f18e9d346fd1168d"
# Captured when repro.fleet landed: the pinned 4-instance stateless cell
# (churn at 0.6s + busiest-instance crash at 0.9s, seed 31).
GOLDEN_FLEET = \
    "60f45b9bd46e5894c774dc9624687e1fd391d66ef8d838e2ea4dd1c973d926fc"


def test_case_cell_bit_identical():
    """One Hermes Table-3 cell: metrics hash matches the pre-PR engine."""
    assert cell_fingerprint() == GOLDEN_CELL


def test_sec7_bit_identical():
    """§7 generality scenarios (both modes) hash-match the pre-PR engine."""
    assert sec7_fingerprint() == GOLDEN_SEC7


def test_fig13_bit_identical():
    """Fig. 13 full series hash-matches the pre-PR engine."""
    assert fig13_fingerprint() == GOLDEN_FIG13


def test_fleet_bit_identical():
    """The pinned fleet_scale cell (ingress + failover + PCC monitors)."""
    assert fleet_fingerprint() == GOLDEN_FLEET


def test_fingerprints_are_run_to_run_stable():
    """Same seed, same process, two runs: byte-identical output."""
    assert cell_fingerprint() == cell_fingerprint()

