"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator
keyed by the user seed and a purpose word, and advanced to a disjoint
counter block per sample (or batch) index.  Results are therefore
reproducible bit for bit given (seed, budget) and independent of how work
is chunked.  Purpose 0, the default, is what the flat, motion and
Steiner samplers draw from; cone-moment sampling takes one purpose word
per face from `purpose_key`, so no two of these read the same numbers.
Seeds are integers in [0, 2^64), the range of one Philox key word.
"""

import hashlib
import operator

import numpy as np

__all__ = ["stream", "purpose_key", "check_seed"]

_BLOCK = 1 << 40  # counter states reserved per index; far above any batch use


def check_seed(seed):
    """`seed` as an int; ValueError unless it is an integer (numpy's
    included) in [0, 2^64): numpy would truncate 1.7 to the key 1."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def stream(seed, index=0, purpose=0):
    """Generator for sample block `index` of the stream keyed by `seed` and
    `purpose`."""
    seed = check_seed(seed)
    bg = np.random.Philox(key=np.array([np.uint64(seed), np.uint64(purpose)]))
    bg.advance(int(index) * _BLOCK)
    return np.random.Generator(bg)


def purpose_key(name, ids=()):
    """Purpose word for the streams drawn for `name` and the integers `ids`
    (such as the vertex indices of a face); odd, so never the samplers' 0."""
    text = repr((name, tuple(int(i) for i in ids))).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little") | 1
