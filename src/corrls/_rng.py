"""Deterministic sub-stream derivation for the counter-based RNG.

Every stochastic component (design matrix, covariate noise, masks, model
errors, coefficient draws, grid cells) pulls from its own stream, derived
from a base seed plus a tuple of string/int labels.  Changing one
component's draw therefore never perturbs another's.
"""

import hashlib

import numpy as np

from .data import _whole

__all__ = ["substream"]


def _label_words(labels):
    h = hashlib.sha256()
    for lab in labels:
        h.update(str(lab).encode())
        h.update(b"\x1f")
    return [int.from_bytes(h.digest()[i : i + 8], "little") for i in (0, 8, 16, 24)]


def substream(seed, *labels):
    """Return a Philox generator keyed by ``seed`` and the label path.

    The same (seed, labels) pair yields a byte-identical stream on every
    call, independent of process, thread count, or call order.  The seed is any
    whole number (`data._whole`), taken modulo 2**64.
    """
    ss = np.random.SeedSequence([_whole(seed, "seed") & 0xFFFFFFFFFFFFFFFF, *_label_words(labels)])
    return np.random.Generator(np.random.Philox(ss))
