"""Deterministic RNG stream derivation.

Every random draw in the package comes from a named Philox substream derived
from one root seed.  A stream is addressed by a path of labels, e.g.
``("bench", "L-n4", 1, "nm", 3)``; the path is hashed with SHA-256 into the
SeedSequence entropy, so the same (root, path) yields the same stream on any
platform and any run.  Philox is counter-based, which keeps independent
streams independent regardless of how much each one is consumed.

`stream_rng` opens a stream as a new generator.  `reseed` points an
existing Philox generator at the start of a stream instead, with the same
draws; the metered objective uses it once per evaluation, where building
a generator each time would cost more than the shots it draws.
"""

import hashlib

import numpy as np

# Bump if the derivation scheme ever changes; recorded in run manifests.
STREAM_VERSION = "qaoabench.philox.sha256.v1"

_SEP = "\x1f"
# Philox's counter at the start of a stream, and its empty buffer
_COUNTER0 = np.zeros(4, dtype=np.uint64)
_COUNTER0.flags.writeable = False


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


def reseed(rng: np.random.Generator, root: int, *path) -> np.random.Generator:
    """Point `rng`, a Generator over Philox, at the start of the substream
    addressed by (root, *path) and return it: its draws are then those of
    `stream_rng(root, *path)`, without building a generator.  Philox
    seeded from a SeedSequence takes the key generate_state(2, uint64),
    four uint32 words read as two little-endian uint64, and starts at
    counter 0 with an empty buffer."""
    key = seed_sequence(root, *path).generate_state(4).view("<u8")
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _COUNTER0, "key": key},
        "buffer": _COUNTER0, "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return rng


def derive_seed(root: int, *path) -> int:
    """Collapse a substream address into a plain 63-bit integer seed."""
    return int.from_bytes(_digest(root, path)[:8], "little") >> 1
