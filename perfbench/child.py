"""One benchmark operation in a fresh interpreter: a cold ``walg`` run.

Usage::

    python3 child.py META_PATH TRACE OP_ID -- ARGS...

ARGS are ``walg`` command-line arguments, or ``triple N a b c``, which
builds the canonical basis at N and compares the two bracketings of the
fused triple.  The child writes the operation's output to stdout and a
JSON record to META_PATH: the wall-clock time at which ``walgebra.cli``
finished importing, whether ``WALG_THREADS`` was set, the package
version and, when TRACE is 1, the spans and counters of the run.
"""

import json
import os
import sys
import time


def run_triple(N: int, a: int, b: int, c: int) -> int:
    import hashlib

    from walgebra.modules import fuse
    from walgebra.whittaker import canonical_basis

    basis = canonical_basis(N)
    va, vb, vc = basis.vector(a), basis.vector(b), basis.vector(c)
    left = fuse(fuse(va, vb), vc)
    right = fuse(va, fuse(vb, vc))
    text = json.dumps(left.to_json(), sort_keys=True, separators=(",", ":"))
    json.dump(
        {
            "N": N,
            "triple": [a, b, c],
            "associative": left == right,
            "terms": len(left.terms),
            "digest": hashlib.sha256(text.encode()).hexdigest(),
        },
        sys.stdout,
        sort_keys=True,
    )
    sys.stdout.write("\n")
    return 0


def main() -> int:
    meta_path, trace, op_id = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    args = sys.argv[sys.argv.index("--") + 1 :]
    import walgebra
    import walgebra.cli

    meta = {
        "import_done": time.time(),
        "walg_threads_set": "WALG_THREADS" in os.environ,
        "version": walgebra.__version__,
        "walgebra_file": walgebra.__file__,
    }
    tracer = None
    try:
        if meta["walg_threads_set"]:
            return 3
        if trace:
            from tracer import Tracer

            tracer = Tracer(op_id)
            tracer.install()
        if args[0] == "triple":
            return run_triple(*(int(v) for v in args[1:]))
        return walgebra.cli.main(args)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            meta["trace"] = tracer.dump()
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


if __name__ == "__main__":
    sys.exit(main())
