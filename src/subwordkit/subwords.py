"""The scattered-subword order on words.

x is a subword of y when the letters of x appear in y in order, not
necessarily adjacently.  This partial order is what the closure and interior
operators are taken over.
"""

from __future__ import annotations

from .core import Word
from .errors import InputError
from . import kernels


def _check_pair(x, y):
    if not isinstance(x, Word) or not isinstance(y, Word):
        raise InputError("embeds expects Word arguments")
    if x.alphabet != y.alphabet:
        raise InputError("words over different alphabets are incomparable")


def embeds(x, y):
    """True when x is a scattered subword of y."""
    _check_pair(x, y)
    return kernels.is_subword(x.letters, y.letters)


def leftmost_embedding(x, y):
    """Greedy leftmost embedding of x into y as 1-based positions, or None.

    The greedy choice is canonical: each letter of x is matched at the
    earliest position after the previous match, and an embedding exists iff
    the greedy one does.
    """
    _check_pair(x, y)
    pos = []
    j = 0
    for a in x.letters:
        while j < len(y.letters) and y.letters[j] != a:
            j += 1
        if j == len(y.letters):
            return None
        pos.append(j + 1)
        j += 1
    return tuple(pos)


def minimal_words(words):
    """Subword-minimal elements of a finite set, first occurrence order.

    Duplicates are dropped; the result generates the same upward closure as
    the input and is an antichain.
    """
    first = {}
    for w in words:
        first.setdefault(w.letters, w)
    return [first[x] for x in kernels.minimal_words(first)]
