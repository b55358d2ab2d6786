"""The generators' bulk-draw shuffle against ``random.shuffle`` itself.

Only the standard library and matchforge are imported, so the check also
runs without pytest, on any interpreter that matchforge supports:
``PYTHONPATH=src:tests python -c "import test_shuffle as t;
t.test_shuffle_matches_random_shuffle()"``.
"""

import random
from array import array

from matchforge.graphs import _SHUFFLE_CHUNK, _SHUFFLE_CUTOFF, _shuffle

# Every length where the helper could slip: the shortest ones, both sides of
# the cutoff, of a change in the draw's bit count and of a chunk refill (a
# sequence of length L fixes L - 1 positions, so L = _SHUFFLE_CHUNK + 1 uses
# exactly one chunk when no draw is rejected).
LENGTHS = sorted({
    0, 1, 2, 3,
    _SHUFFLE_CUTOFF - 1, _SHUFFLE_CUTOFF, _SHUFFLE_CUTOFF + 1,
    255, 256, 257, 1023, 1024, 1025,
    _SHUFFLE_CHUNK - 1, _SHUFFLE_CHUNK, _SHUFFLE_CHUNK + 1, _SHUFFLE_CHUNK + 2,
    2 * _SHUFFLE_CHUNK + 2,
})


def test_shuffle_matches_random_shuffle():
    for n in LENGTHS:
        for make in (list, lambda items: array("I", items)):
            for seed in range(50):
                expected, got = make(range(n)), make(range(n))
                reference, rng = random.Random(seed), random.Random(seed)
                reference.shuffle(expected)
                _shuffle(rng, got)
                assert got == expected, (n, type(got), seed)
                assert rng.getstate() == reference.getstate(), (n, type(got), seed)
                assert rng.random() == reference.random()
