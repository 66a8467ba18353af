"""Initialization-vector generation.

Algorithm 1 "Generate random Initial Vector IV".  Production use pulls
OS entropy; experiments pass a seeded generator so that every table in
EXPERIMENTS.md is bit-reproducible.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["generate_iv", "generate_nonce", "fresh_iv", "refuse_seeded_ctr"]


def generate_iv(rng: np.random.Generator | None = None) -> bytes:
    """Return a fresh 16-byte IV.

    Parameters
    ----------
    rng:
        Optional seeded NumPy generator for deterministic experiment
        runs.  When ``None`` (the default), uses ``os.urandom``.
    """
    if rng is None:
        return os.urandom(16)
    return rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()


def generate_nonce(rng: np.random.Generator | None = None) -> bytes:
    """Return a fresh 8-byte CTR nonce (see :func:`generate_iv`)."""
    if rng is None:
        return os.urandom(8)
    return rng.integers(0, 256, size=8, dtype=np.uint8).tobytes()


def fresh_iv(cipher_mode: str, rng: np.random.Generator | None = None) -> bytes:
    """The IV a container in ``cipher_mode`` carries: an 8-byte nonce
    for ``"ctr"``, a 16-byte IV otherwise."""
    if cipher_mode == "ctr":
        return generate_nonce(rng)
    return generate_iv(rng)


def refuse_seeded_ctr(
    cipher_mode: str, rng: np.random.Generator | None
) -> None:
    """Raise ``ValueError`` for CTR with a seeded ``rng``.

    Seeded nonces repeat across runs: the same seed and key would
    encrypt two plaintexts under one (key, nonce) pair and leak their
    XOR.  Seeded CBC stays allowed (a repeated IV leaks only
    equal-prefix information, and the reproduction tables need it).
    """
    if cipher_mode == "ctr" and rng is not None:
        raise ValueError(
            "cipher_mode='ctr' with a seeded random_state derives "
            "deterministic nonces: re-running with the same seed and "
            "key would encrypt two plaintexts under one (key, nonce) "
            "pair and leak their XOR. Drop random_state to use OS "
            "entropy, or use cipher_mode='cbc' (DESIGN.md)."
        )
