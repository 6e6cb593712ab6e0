"""reduce-library worker: one process per run.

    python3 perfbench/libworker.py --seed N --seconds S [--setup-only]

Times the import of bchnest plus the identity-table build, then runs the
seeded requests in passes for S seconds (at least enough passes for
LIBRARY_MIN_CALLS calls) and prints one JSON object: set-up seconds, pass
and call walls, and every call's serialized output or error.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from measure import timed_passes
from workloads import LIBRARY_MIN_CALLS, library_inputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = perf_counter()
    import library

    library.setup()
    doc: dict = {"setup_s": perf_counter() - start}
    if not args.setup_only:
        from bchnest.terms import LieExpr

        requests = [(m, LieExpr(terms)) for m, terms in library_inputs(args.seed)]
        calls: list[float] = []
        outputs: list[list[tuple[str, str | None]]] = []

        def one_pass(_: int) -> None:
            done = []
            for m, expr in requests:
                t0 = perf_counter()
                try:
                    done.append((library.call(m, expr), None))
                except Exception as exc:  # a failing call is counted, not fatal
                    done.append(("", repr(exc)))
                calls.append(perf_counter() - t0)
            outputs.append(done)

        min_passes = -(-LIBRARY_MIN_CALLS // len(requests))
        doc["pass_s"] = timed_passes(one_pass, args.seconds, min_passes)
        doc["call_s"] = calls
        doc["outputs"] = outputs
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
