"""Uniform seeding for every workload generator.

All generators in :mod:`repro.workloads` (and the fuzzing scenarios in
:mod:`repro.verification`) accept a ``seed`` that is either a plain
``int`` or an already-constructed :class:`random.Random`. Integers are
the replayable form — the same integer always yields the same output,
across processes and platforms — while passing a ``Random`` instance
lets callers chain several generators off one master stream.

:func:`make_rng` is the single conversion point. Generators that
historically XOR-ed a salt into their integer seeds (so that, e.g., the
trace generator and the traffic generator fed the same seed do not walk
in lockstep) keep those exact salts, preserving historical outputs for
integer seeds.

None of the generators touch the global :mod:`random` state in either
direction: reseeding ``random`` never changes their output, and running
them never perturbs unrelated code.
"""

from __future__ import annotations

import random
from typing import Union

#: What generators accept as a seed: a replayable integer, a caller-owned
#: stream, or ``None`` for the documented default of ``0``.
SeedLike = Union[int, random.Random, None]


def make_rng(seed: SeedLike, *, salt: int = 0) -> random.Random:
    """A :class:`random.Random` for ``seed``.

    * ``int`` — a fresh ``Random(seed ^ salt)``; the ``salt`` decorrelates
      generators that are routinely fed the same integer.
    * :class:`random.Random` — returned as-is (the salt is ignored; the
      caller owns the stream and its decorrelation).
    * ``None`` — treated as integer ``0``.
    """
    if seed is None:
        seed = 0
    if isinstance(seed, random.Random):
        return seed
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(
            f"seed must be an int or random.Random, got {type(seed).__name__}")
    return random.Random(seed ^ salt)


def derive_seed(seed: SeedLike, label: str, *, salt: int = 0) -> int:
    """A stable integer sub-seed for the stream named ``label``.

    Folds ``label`` into ``seed`` with a small deterministic hash (not
    Python's randomised ``hash``), so distinct labels yield decorrelated
    but fully reproducible child seeds. When ``seed`` is a ``Random``
    instance the child seed is drawn from it instead.
    """
    if isinstance(seed, random.Random):
        return seed.getrandbits(63)
    if seed is None:
        seed = 0
    folded = (seed ^ salt) & 0x7FFFFFFFFFFFFFFF
    for char in label:
        folded = (folded * 1_000_003 + ord(char)) & 0x7FFFFFFFFFFFFFFF
    return folded
