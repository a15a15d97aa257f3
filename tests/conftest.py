from invpoly import HSequence

# The sweep corpus: the h family exercised by every cross-checking suite.
CORPUS_H = [
    HSequence((), 1),
    HSequence((), 2),
    HSequence((), 3),
    HSequence((2, 4, 4, 5), 1),
    HSequence((3, 4, 6, 7, 7), 1),
    HSequence((5, 5, 6, 6), 1),
]
