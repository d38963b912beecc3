"""Deterministic 64-bit PRNG (splitmix64) for reproducible sweeps.

The generator is pinned to the published splitmix64 constants so that a
seed produces the same stream on every platform and Python version.
"""

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 stream; next_u64 is the raw generator."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next_u64(self):
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def skip(self, n):
        """Advance the stream past n draws of next_u64 without making them:
        each draw adds the same constant to the state."""
        self.state = (self.state + n * _GAMMA) & _MASK

    def below(self, n):
        """Uniform integer in [0, n) (rejection-free modulo bias is fine here)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def shuffle(self, items):
        """Fisher-Yates in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items
