"""Deterministic RNG stream derivation.

Every random draw in the package comes from a named Philox substream derived
from one root seed.  A stream is addressed by a path of labels, e.g.
``("bench", "L-n4", 1, "nm", 3)``; the path is hashed with SHA-256 into the
SeedSequence entropy, so the same (root, path) yields the same stream on any
platform and any run.  Philox is counter-based, which keeps independent
streams independent regardless of how much each one is consumed.

`stream_rng` opens a stream as a new generator.  `point` aims an existing
Philox generator at the start of a stream, given the stream's key, with
the same draws.  `stream_keys` derives the keys of a run of indexed
streams (root, *path, i) at once: one SHA-256 per index, then numpy's
SeedSequence mixing as uint32 array operations over all of them, so a
sampled objective derives its whole budget's keys in one call.  A test
pins these keys to numpy's own `SeedSequence`.
"""

import hashlib

import numpy as np

# Bump if the derivation scheme ever changes; recorded in run manifests.
STREAM_VERSION = "qaoabench.philox.sha256.v1"

_SEP = "\x1f"
# Philox's counter at the start of a stream, and its empty buffer (a
# tuple: the state setter reads it word by word)
_COUNTER0 = (0, 0, 0, 0)

# numpy's SeedSequence (numpy/random/bit_generator.pyx) over the eight
# words of a SHA-256 digest: a pool of four uint32 words, the running hash
# constants of its entropy mixing and state output, and `mix`'s multipliers
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_consts(h: int, mult: int, steps: int):
    """The (xor, multiply) (steps, 1) uint32 columns of `steps` hashmix
    steps from running constant `h`: a step xors by the constant, then
    multiplies the constant by `mult` and the value by the result."""
    hs = [h]
    for _ in range(steps):
        hs.append(hs[-1] * mult & 0xFFFFFFFF)
    hs = np.array(hs, np.uint32)[:, None]
    return hs[:-1], hs[1:]


# mix_entropy's 32 steps: 4 fill the pool, 3 mix each pool word into the
# others, 4 mix each later word into the pool; generate_state's 4
_XA, _MA = _hash_consts(_INIT_A, _MULT_A, 32)
_XB, _MB = _hash_consts(_INIT_B, _MULT_B, 4)


def _hashmix(v, xs, ms):
    v = v ^ xs
    v *= ms
    v ^= v >> _SHIFT
    return v


def _mix(x, y):
    r = _MIX_L * x
    r -= _MIX_R * y
    r ^= r >> _SHIFT
    return r


def _generate_state(words: np.ndarray) -> np.ndarray:
    """`SeedSequence(entropy=column).generate_state(4)` of each column of
    the (8, K) uint32 `words`, as (4, K): numpy's steps in numpy's order,
    each over all K columns."""
    pool = _hashmix(words[:4], _XA[:4], _MA[:4])
    for src in range(4):
        # the source word is read, not written, while it is mixed in
        dst, at = [d for d in range(4) if d != src], 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _XA[at:at + 3],
                                             _MA[at:at + 3]))
    # the later words' hashes do not depend on the pool
    late = _hashmix(words[4:, None], _XA[16:].reshape(4, 4, 1),
                    _MA[16:].reshape(4, 4, 1))
    for hashes in late:
        pool = _mix(pool, hashes)
    return _hashmix(pool, _XB, _MB)


def _address(root: int, path) -> bytes:
    return _SEP.join([str(int(root))] + [str(p) for p in path]).encode(
        "utf-8")


def _digest(root: int, path) -> bytes:
    return hashlib.sha256(_address(root, path)).digest()


def seed_sequence(root: int, *path) -> np.random.SeedSequence:
    """SeedSequence for the substream addressed by (root, *path)."""
    # the digest's uint32 words as an array: the same state as a list of
    # ints, without the per-word Python conversions
    words = np.frombuffer(_digest(root, path), dtype="<u4")
    return np.random.SeedSequence(entropy=words)


def stream_rng(root: int, *path) -> np.random.Generator:
    """Philox generator for the substream addressed by (root, *path)."""
    return np.random.Generator(np.random.Philox(seed_sequence(root, *path)))


def stream_keys(root: int, path, count: int) -> np.ndarray:
    """(count, 2) uint64 Philox keys of the substreams (root, *path, i),
    row i for i < count: each equals
    `seed_sequence(root, *path, i).generate_state(4).view("<u8")`."""
    prefix = _address(root, path) + _SEP.encode()
    digests = b"".join([hashlib.sha256(b"%b%d" % (prefix, i)).digest()
                        for i in range(count)])
    # the digests' words, one column per stream
    words = np.frombuffer(digests, dtype="<u4").reshape(count, 8).T.copy()
    return np.ascontiguousarray(_generate_state(words).T,
                                dtype="<u4").view("<u8")


def point(rng: np.random.Generator, key) -> np.random.Generator:
    """Point `rng`, a Generator over Philox, at the start of the stream of
    Philox key `key` (two uint64, fastest as a list of ints) and return
    it: its draws are then those of a Philox seeded with that key,
    without building a generator.
    Philox seeded from a SeedSequence takes the key generate_state(2,
    uint64), four uint32 words read as two little-endian uint64, and
    starts at counter 0 with an empty buffer."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _COUNTER0, "key": key},
        "buffer": _COUNTER0, "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return rng


def derive_seed(root: int, *path) -> int:
    """Collapse a substream address into a plain 63-bit integer seed."""
    return int.from_bytes(_digest(root, path)[:8], "little") >> 1
