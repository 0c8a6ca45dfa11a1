"""A fixed amount of pure-Python work, timed as a cold child process.

Usage::

    python3 calibrate.py

The run does the same work every time and never imports walgebra:
exact ``Fraction`` arithmetic, dictionaries keyed by tuples and a sort,
the operations walgebra's term arithmetic is made of.  ``run.py`` times
one such child before every operation, spawn to exit, and divides the
operation times by the median of these times, so that the speed the
shared host happens to run at during a run cancels out of the metrics.
It prints a checksum of its result so that the work cannot be skipped.
"""

import sys
from fractions import Fraction

ROUNDS = 14000


def work(rounds: int) -> int:
    terms = {}
    acc = Fraction(0)
    for i in range(1, rounds):
        f = Fraction(i, i % 7 + 1)
        acc += f * f / (i % 5 + 1)
        mono = (i % 97, i % 89, i % 13)
        terms[mono] = terms.get(mono, 0) + i
        terms[(mono, i % 1009)] = acc.numerator & 0xFFFF
    return sum(hash(k) & 0xFF for k in sorted(terms, key=repr)) + acc.denominator % 1000003


if __name__ == "__main__":
    sys.stdout.write("%d\n" % work(ROUNDS))
