"""Generate ``expected_n4.json``: the n=4 answer table ``frontier_n4``
checks against.

Every class is answered on the product path (bitset backend, the
default) under a generous deadline, one class at a time, and its wall
is recorded; each answered class is answered again on the ``reference``
backend under the same deadline, and the two verdicts must agree.
Classes that miss the deadline are recorded with ``"verdict": null`` —
a later, faster program that answers them is reported as *unverified*,
not correct.  ``frontier_n4`` takes the classes whose recorded wall is
under its own deadline as its answered stratum.

Usage, from the checkout root, on an otherwise idle machine (a serial
pass with a 15 s deadline takes about an hour)::

    python3 perfbench/make_expected.py --deadline 15
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ensure_program, run_forked, source_revision  # noqa: E402
from frontier import (  # noqa: E402
    EXPECTED_PATH,
    canonical_edges,
    enumerate_classes,
    product_path,
)


def answer_all(deadline: float) -> dict:
    table = {}
    for index, g in enumerate(enumerate_classes()):
        entry = {
            "edges": g.proper_edge_count,
            "verdict": None,
            "wall_s": deadline,
            "reference": "timeout",
        }
        fast = run_forked(product_path, (g,), deadline)
        if fast["status"] == "error":
            raise SystemExit(f"class {index}: {fast['value']}")
        if fast["status"] == "done":
            entry["verdict"] = fast["value"]["row"][1:]
            entry["wall_s"] = fast["value"]["wall"]
            ref = run_forked(product_path, (g, "reference"), deadline)
            if ref["status"] == "error":
                raise SystemExit(f"class {index} (reference): {ref['value']}")
            if ref["status"] == "done":
                if ref["value"]["row"] != fast["value"]["row"]:
                    raise SystemExit(
                        f"class {index}: bitset {fast['value']['row']} != "
                        f"reference {ref['value']['row']}"
                    )
                entry["reference"] = "agrees"
        table[canonical_edges(g.proper_edges())] = entry
        print(index, entry, flush=True)
    return table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deadline", type=float, default=15.0)
    args = parser.parse_args()
    ensure_program()
    payload = {
        "n": 4,
        "deadline_s": args.deadline,
        "revision": source_revision(),
        "classes": dict(sorted(answer_all(args.deadline).items())),
    }
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
