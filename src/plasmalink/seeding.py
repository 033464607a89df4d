"""Deterministic PRNG substreams.

All randomness in the package flows through numpy's PCG64 generator, keyed
by ``SeedSequence([seed, role_id])`` (bench.cell_seed adds a cell's SNR,
interval and trial). Each role in ROLES gets its own substream, so e.g.
changing the noise draw never perturbs the frame contents. Streams are
platform independent and bit-reproducible.
"""

from __future__ import annotations

import numpy as np

# Fixed role ids; appending new roles is fine, renumbering is not.
ROLES = {
    "frame": 0,
    "noise": 1,
    "init": 2,
    "dnn": 3,
    "cell": 4,
}


def role_rng(seed: int, role: str) -> np.random.Generator:
    """Generator for the given role."""
    if role not in ROLES:
        raise ValueError(f"unknown rng role {role!r}; expected one of {sorted(ROLES)}")
    return np.random.default_rng(np.random.SeedSequence([seed, ROLES[role]]))
