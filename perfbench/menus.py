"""Workload definitions: the operations each workload draws from.

An operation is one cold child process.  ``candidates(workload)`` lists
every input considered for a workload, as ``(key, argv)`` pairs, where
``key`` names the input in ``golden.json`` and ``menu_costs.json`` and
``argv`` is what ``child.py`` receives after ``--``.  The menu a run
draws from is the candidates that have a golden digest (inputs left out
for cost have none; ``menu_costs.json`` lists them with their times).
"""

from __future__ import annotations

WORKLOADS = ("t-generators", "canonical-J", "triple-fusion", "selftest")

# compute-T: subregular pyramids with r up to N-1, plus four
# non-subregular pyramids; truncate 0 or 1 everywhere.
T_SUBREGULAR = ("subreg:7", "subreg:8", "subreg:9")
T_OTHER = ("1,3,3,1", "1,2,2,2,1", "2,2,2,2", "2,3,3,2,1")
T_TRUNCATE = (0, 1)


def _heights(spec: str) -> tuple:
    """Column heights of a CLI pyramid literal."""
    if spec.startswith("subreg:"):
        N = int(spec.split(":", 1)[1])
        return (2,) + (1,) * (N - 2)
    return tuple(int(h) for h in spec.split(","))


def t_series():
    """Candidate compute-T inputs grouped by everything but r.

    Each series is ``(pyramid, truncate, i, j, x, r_values)`` with r
    ascending from 1 to N-1, so a measurement can stop a series at its
    first input that is too expensive.
    """
    for spec in T_SUBREGULAR + T_OTHER:
        heights = _heights(spec)
        N = sum(heights)
        for k in T_TRUNCATE:
            n = max(heights[: len(heights) - k])
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for x in range(0, n + 1):
                        yield spec, k, i, j, x, tuple(range(1, N))


def t_key(spec, k, i, j, x, r) -> str:
    return "T|%s|k%d|i%d|j%d|x%d|r%d" % (spec, k, i, j, x, r)


def t_argv(spec, k, i, j, x, r) -> list:
    return [
        "compute-T", "--pyramid", spec, "--truncate", str(k),
        "--i", str(i), "--j", str(j), "--x", str(x), "--r", str(r),
        "--format", "json",
    ]


# triple-fusion: triples at N = 6 with at most two entries in {1, 2, 3};
# the 27 all-large triples (8-45 s each) are left for later.
TRIPLE_N = 6
LARGE = (1, 2, 3)


def triples():
    out = []
    for a in range(1, TRIPLE_N + 1):
        for b in range(1, TRIPLE_N + 1):
            for c in range(1, TRIPLE_N + 1):
                if sum(v in LARGE for v in (a, b, c)) <= 2:
                    out.append((a, b, c))
    return out


def triple_key(a, b, c) -> str:
    return "F|N%d|%d,%d,%d" % (TRIPLE_N, a, b, c)


def triple_argv(a, b, c) -> list:
    return ["triple", str(TRIPLE_N), str(a), str(b), str(c)]


J_KEY = "J|N6|compare"
J_ARGV = ["compute-J", "--N", "6", "--compare", "--format", "json"]
SELFTEST_KEY = "S|N5"
SELFTEST_ARGV = ["selftest", "--N", "5", "--format", "json"]


def candidates(workload: str) -> list:
    """Every considered input of a workload, as (key, argv) pairs."""
    if workload == "t-generators":
        return [
            (t_key(spec, k, i, j, x, r), t_argv(spec, k, i, j, x, r))
            for spec, k, i, j, x, rs in t_series()
            for r in rs
        ]
    if workload == "canonical-J":
        return [(J_KEY, J_ARGV)]
    if workload == "triple-fusion":
        return [(triple_key(*t), triple_argv(*t)) for t in triples()]
    if workload == "selftest":
        return [(SELFTEST_KEY, SELFTEST_ARGV)]
    raise KeyError(workload)
