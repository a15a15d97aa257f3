from invpoly import HSequence, Permutation, inv_h

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
