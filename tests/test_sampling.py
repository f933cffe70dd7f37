"""`sampling._randint` draws what `random.Random` draws: the same integers
and the same bits from the stream, for every range `sampling.py` draws from,
so the byte-stable records rest on `getrandbits` alone."""

import random

import pytest

from onepoint.sampling import _randint

#: The (a, b) of every integer draw in sampling.py: rand_fraction at its
#: defaults and at selftest's (-12, 12, 8), random_space, random_real_open,
#: random_point_in, the escape hulls, the tails of a neighbourhood of p (32
#: and 12), random_closed_in_extension, the closed pair's mode and margin.
SAMPLING_RANGES = (
    [(1, 6), (1, 8), (1, 5), (-12, -6), (1, 3), (1, 10), (0, 3), (1, 20), (1, 4)]
    + [(-8 * d, 8 * d) for d in range(1, 7)]
    + [(-12 * d, 12 * d) for d in range(1, 9)]
    + [(1, 15), (1, 24), (0, 32), (0, 12), (0, 6), (0, 2), (2, 4)]
)

#: Widths 1 to 300, the powers of two up to 2^70 and one either side of
#: each, from a few starting points.
WIDTHS = sorted(
    set(range(1, 301)) | {w for k in range(71) for w in (2**k - 1, 2**k, 2**k + 1) if w > 0}
)
GENERIC_RANGES = [(a, a + w - 1) for w in WIDTHS for a in (0, -7, 3**40)]


@pytest.mark.parametrize("seed", [0, 7, 20260808])
def test_randint_matches_random_randint(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for a, b in SAMPLING_RANGES * 20 + GENERIC_RANGES:
        assert _randint(ours, a, b) == theirs.randint(a, b), (a, b)
        assert ours.getstate() == theirs.getstate(), (a, b)


@pytest.mark.parametrize("seed", [1, 8])
def test_randint_matches_randrange(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for a, b in SAMPLING_RANGES * 20 + GENERIC_RANGES:
        assert _randint(ours, 0, b - a) == theirs.randrange(b - a + 1)
        assert _randint(ours, a, b) == theirs.randrange(a, b + 1)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", [2, 9])
def test_randint_matches_choice(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    seqs = [("pF", "pG", "plain")] + [tuple(range(n)) for n in range(1, 130)]
    for seq in seqs * 5:
        assert seq[_randint(ours, 0, len(seq) - 1)] == theirs.choice(seq)
    assert ours.getstate() == theirs.getstate()


def test_width_one_draws_no_bits_but_zero():
    """A width of 1 asks `getrandbits(1)` until it reads 0, as CPython does:
    the stream moves even though the answer is fixed."""
    ours, theirs = random.Random(5), random.Random(5)
    for _ in range(50):
        assert _randint(ours, 4, 4) == theirs.randint(4, 4) == 4
    assert ours.getstate() == theirs.getstate()
    assert ours.getstate() != random.Random(5).getstate()
