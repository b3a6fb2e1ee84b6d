"""Shared primitive types used across the library.

The simulator, adversaries, and protocols all speak in terms of a few simple
identifiers and enumerations.  Keeping them in one module avoids circular
imports between the packages.
"""

from __future__ import annotations

import enum
from typing import Optional

#: Identifier of a simulated node.  Node ids are small consecutive integers
#: assigned by the simulator; they are *not* visible to protocols (protocols
#: see only their randomly drawn unique identifier).
NodeId = int

#: A frequency index.  Frequencies are 1-based, matching the paper's notation
#: ``[1 .. F]``.
Frequency = int

#: A global round index (1-based).  Only the simulator knows global rounds;
#: protocols see their local activation age.
GlobalRound = int

#: A local round index (1-based): the number of rounds a node has been active.
LocalRound = int

#: The value a node outputs each round: a round number, or ``None`` for the
#: paper's ``⊥``.
SyncOutput = Optional[int]


class Intent(enum.Enum):
    """What a node does with its chosen frequency in a round."""

    BROADCAST = "broadcast"
    LISTEN = "listen"

    # Members are singletons compared by identity, so identity hashing is
    # exact — and a C slot call instead of ``Enum.__hash__``'s Python frame
    # on every enum-keyed dict access in the round loop.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Role(enum.Enum):
    """Coarse protocol roles, used for reporting and metrics.

    Not every protocol uses every role; baselines typically only use
    ``CONTENDER``, ``LEADER`` and ``SYNCHRONIZED``.
    """

    CONTENDER = "contender"
    SAMARITAN = "samaritan"
    KNOCKED_OUT = "knocked_out"
    LEADER = "leader"
    SYNCHRONIZED = "synchronized"
    PASSIVE = "passive"

    __hash__ = object.__hash__  # see Intent

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value
