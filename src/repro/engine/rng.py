"""Deterministic random stream management.

Every stochastic component of a simulation (each node, the interference
adversary, the activation schedule) gets its own :class:`random.Random`
stream derived from a single master seed.  Deriving streams by hashing
``(master_seed, component label)`` keeps executions reproducible while
ensuring that adding a node or swapping an adversary does not perturb the
randomness of unrelated components.
"""

from __future__ import annotations

import hashlib
import random

#: Memoized label encodings.  Stream labels come from a small recurring
#: vocabulary ("node", node ids, "adversary", …) but the batch kernel derives
#: one stream per ``(trial, component)`` pair, so pre-drawing thousands of
#: trials would otherwise re-encode the same labels thousands of times.  Keys
#: include the label's type: ``1`` and ``True`` compare (and hash) equal but
#: encode differently.
_LABEL_CACHE: dict[tuple[type, object], bytes] = {}


def _encoded_label(label: object) -> bytes:
    try:
        key = (type(label), label)
        cached = _LABEL_CACHE.get(key)
    except TypeError:  # unhashable label: encode without caching
        return b"/" + str(label).encode("utf-8")
    if cached is None:
        cached = _LABEL_CACHE[key] = b"/" + str(label).encode("utf-8")
    return cached


def randint_upto(rng: random.Random, n: int) -> int:
    """A uniform integer in ``[1 .. n]``, drawn exactly as ``rng.randint(1, n)``.

    CPython's ``randint(1, n)`` returns ``1 + _randbelow(n)``, which draws
    ``getrandbits(n.bit_length())`` until the draw falls below ``n``.  This
    makes the same draws without the three stdlib frames in between, so the
    value and the generator's state afterwards are identical — the protocols'
    per-round frequency choices use it, and every golden digest still holds.
    """
    if n < 1:
        raise ValueError(f"empty range [1 .. {n}]")
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    draw = getrandbits(bits)
    while draw >= n:
        draw = getrandbits(bits)
    return draw + 1


def derive_seed(master_seed: int, *labels: object) -> int:
    """Derive a 64-bit child seed from a master seed and a label path.

    The derivation is stable across processes and Python versions (it uses
    SHA-256 rather than ``hash()``, which is salted per process).
    """
    digest = hashlib.sha256()
    digest.update(str(master_seed).encode("utf-8"))
    for label in labels:
        digest.update(_encoded_label(label))
    return int.from_bytes(digest.digest()[:8], "big")


class RandomStreams:
    """A factory of named, reproducible random streams.

    Parameters
    ----------
    master_seed:
        The experiment-level seed.  Two :class:`RandomStreams` built from the
        same master seed hand out identical streams for identical labels.
    """

    def __init__(self, master_seed: int) -> None:
        self._master_seed = master_seed

    @property
    def master_seed(self) -> int:
        """The master seed this factory derives from."""
        return self._master_seed

    def stream(self, *labels: object) -> random.Random:
        """A fresh :class:`random.Random` for the given label path."""
        return random.Random(derive_seed(self._master_seed, *labels))

    def node_stream(self, node_id: int) -> random.Random:
        """The stream owned by node ``node_id``."""
        return self.stream("node", node_id)

    def adversary_stream(self) -> random.Random:
        """The stream owned by the interference adversary."""
        return self.stream("adversary")

    def activation_stream(self) -> random.Random:
        """The stream owned by the activation schedule."""
        return self.stream("activation")
