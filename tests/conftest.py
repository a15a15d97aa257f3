import pytest

from invpoly import HSequence, Permutation, inv_h, kernels

# The sweep corpus: the h family exercised by every cross-checking suite.
CORPUS_H = [
    HSequence((), 1),
    HSequence((), 2),
    HSequence((), 3),
    HSequence((2, 4, 4, 5), 1),
    HSequence((3, 4, 6, 7, 7), 1),
    HSequence((5, 5, 6, 6), 1),
]


def h_id(h):
    """A short test id for an h: prefix-5566, tail3."""
    return f"prefix-{''.join(map(str, h.prefix))}" if h.prefix else f"tail{h.tail_offset}"


# The h of the windows beyond an S_n sweep, drawn from with draw().
HS = [HSequence((), 2), HSequence((), 3), HSequence((5, 5, 6, 6), 1)]
H_IDS = ["tail2", "tail3", "prefix-5566"]


def draw(h, hm, rng):
    """A random word of [hm] with its last descent at the m where h(m) = hm,
    and its restricted inversion set S, so that h(m(S)) = hm."""
    m = rng.choice([m for m in range(1, hm) if h.h(m) == hm])
    while True:
        head = rng.sample(range(1, hm + 1), m)
        rest = sorted(set(range(1, hm + 1)).difference(head))
        if head[-1] > rest[0]:
            word = tuple(head + rest)
            return word, m, inv_h(h, Permutation(word))


def random_h(rng):
    """A valid h-sequence: prefix values at most 9, tail offset 1..4."""
    t, L = rng.randint(1, 4), rng.randint(0, 5)
    prefix = []
    for i in range(1, L + 1):
        lo = max(prefix[-1] if prefix else 0, i + 1)
        prefix.append(rng.randint(lo, min(9, L + 1 + t)))
    return HSequence(tuple(prefix), t)


def splits(n):
    """The suffix lengths the grouping sweep chooses among at n."""
    return range(min(2, n), min(6, n) + 1)


@pytest.fixture
def force_split(monkeypatch):
    """force_split(r) makes r the cheapest split for every later sweep,
    and returns the list of the suffix lengths the sweeps then priced."""
    def force(r):
        priced = []

        def cost(n, s, pairs):
            priced.append(s)
            return 0 if s == r else 1

        monkeypatch.setattr(kernels, "_cost", cost)
        return priced
    return force
