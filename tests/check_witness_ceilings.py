"""Fail if a ratchet ceiling rose, or an entry went or changed its query, since a base commit.

Usage: ``python tests/check_witness_ceilings.py BASE_REF``, run from the
repository root, compares each ratchet file in the working tree with its copy
at ``BASE_REF`` (for example ``origin/main``): ``tests/witness_ceilings.json``
(one entry per witness point), ``tests/relation_ceilings.json`` (one entry
per stratum of twins) and ``tests/accuracy_ceilings.json`` (one entry per
exact-tail query).  A base without a file passes for that file; a ref
that names no commit is an error.  Exit 0 when every base entry is kept, with
its query and a ceiling no higher than before.
"""

import json
import subprocess
import sys
from pathlib import Path

PATHS = ("tests/witness_ceilings.json", "tests/relation_ceilings.json", "tests/accuracy_ceilings.json")


def _faults(base_ref: str, path: str) -> int:
    """Print and count what ``path`` lost or raised since ``base_ref``."""
    shown = subprocess.run(["git", "show", f"{base_ref}:{path}"], capture_output=True, text=True)
    if shown.returncode != 0:
        print(f"{base_ref} has no {path}: nothing to compare")
        return 0
    base, head = json.loads(shown.stdout), json.loads(Path(path).read_text())
    faults = []
    for key, point in base.items():
        new = head.get(key)
        if new is None:
            faults.append(f"{key}: missing")
        elif {**new, "ceiling": None} != {**point, "ceiling": None}:
            faults.append(f"{key}: the query changed")
        elif new["ceiling"] > point["ceiling"]:
            faults.append(f"{key}: ceiling rose from {point['ceiling']} to {new['ceiling']}")
    lowered = sum(key in head and head[key]["ceiling"] < p["ceiling"] for key, p in base.items())
    print(f"{path}: {len(base)} entries at {base_ref}, {lowered} ceilings lowered, {len(faults)} faults")
    for fault in faults:
        print(fault)
    return len(faults)


def main(base_ref: str) -> int:
    verify = ["git", "rev-parse", "--quiet", "--verify", f"{base_ref}^{{commit}}"]
    if subprocess.run(verify, stdout=subprocess.DEVNULL).returncode:
        print(f"{base_ref} names no commit")
        return 1
    faults = sum(_faults(base_ref, path) for path in PATHS)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
