"""Deterministic RNG stream derivation.

Every random draw in the package comes from a named Philox substream derived
from one root seed.  A stream is addressed by a path of labels, e.g.
``("bench", "L-n4", 1, "nm", 3)``; the path is hashed with SHA-256 into the
SeedSequence entropy, so the same (root, path) yields the same stream on any
platform and any run.  Philox is counter-based, which keeps independent
streams independent regardless of how much each one is consumed.
"""

import hashlib

import numpy as np

# Bump if the derivation scheme ever changes; recorded in run manifests.
STREAM_VERSION = "qaoabench.philox.sha256.v1"

_SEP = "\x1f"


def _digest(root: int, path) -> bytes:
    text = _SEP.join([str(int(root))] + [str(p) for p in path])
    return hashlib.sha256(text.encode("utf-8")).digest()


def seed_sequence(root: int, *path) -> np.random.SeedSequence:
    """SeedSequence for the substream addressed by (root, *path)."""
    # the digest's uint32 words as an array: the same state as a list of
    # ints, without the per-word Python conversions
    words = np.frombuffer(_digest(root, path), dtype="<u4")
    return np.random.SeedSequence(entropy=words)


def stream_rng(root: int, *path) -> np.random.Generator:
    """Philox generator for the substream addressed by (root, *path)."""
    return np.random.Generator(np.random.Philox(seed_sequence(root, *path)))


def derive_seed(root: int, *path) -> int:
    """Collapse a substream address into a plain 63-bit integer seed."""
    return int.from_bytes(_digest(root, path)[:8], "little") >> 1
