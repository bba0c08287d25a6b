"""A pure-Python PCG64 that reproduces ``numpy.random.Generator(numpy.random.PCG64(seed))``.

The seed goes through numpy's ``SeedSequence`` mixing (derived from M. E.
O'Neill's ``seed_seq_fe``) into a 128-bit state and increment; each draw
steps the 128-bit LCG and applies the XSL-RR output function (O'Neill,
*PCG: A Family of Simple Fast Space-Efficient Statistically Good Algorithms
for Random Number Generation*, HMC-CS-2014-0905, 2014). ``random`` and
``uniform`` then follow numpy's ``next_double`` and ``random_uniform``, so
a seed gives numpy's stream bit for bit (the tests compare the two), while
the stream itself no longer depends on which numpy, if any, is installed.
"""

from __future__ import annotations

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence constants: pool size, hash multipliers and the mixing pair.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _hasher(init: int, mult: int):
    """SeedSequence's 32-bit hash, whose constant advances by ``mult`` at every call."""
    const = init

    def hash32(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> _XSHIFT

    return hash32


def _mix(x: int, y: int) -> int:
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _seed_words(seed: int) -> list[int]:
    """Four 64-bit words from ``seed``, as ``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    # The seed's 32-bit words, least significant first; 0 is one word.
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hasher(_INIT_B, _MULT_B)
    state = [output(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)]
    # Pairs of 32-bit words, low word first.
    return [state[i] | state[i + 1] << 32 for i in range(0, len(state), 2)]


class PCG64:
    """The ``random`` and ``uniform`` draws of numpy's ``Generator(PCG64(seed))``."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int) -> None:
        u0, u1, u2, u3 = _seed_words(seed)
        inc = self._inc = ((u2 << 64 | u3) << 1 | 1) & _MASK128
        # pcg64_srandom_r: step from state 0, add the initial state, step again.
        self._state = ((inc + (u0 << 64 | u1)) * _MULTIPLIER + inc) & _MASK128

    def random(self) -> float:
        """The next double in [0, 1): the top 53 bits of the next output, times 2**-53."""
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        value = (state >> 64) ^ (state & _MASK64)
        rot = state >> 122
        return (((value >> rot | value << (64 - rot)) & _MASK64) >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        """A draw from [low, high): ``low + (high - low) * random()`` in double precision."""
        low = float(low)
        return low + (float(high) - low) * self.random()
