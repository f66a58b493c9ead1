"""Fail if a witness ceiling rose, or a point went or changed its query, since a base commit.

Usage: ``python tests/check_witness_ceilings.py BASE_REF``, run from the
repository root, compares ``tests/witness_ceilings.json`` in the working tree
with the copy at ``BASE_REF`` (for example ``origin/main``).  A base without
the file passes; a ref that names no commit is an error.  Exit 0 when every
base point is kept, with its query and a ceiling no higher than before.
"""

import json
import subprocess
import sys
from pathlib import Path

PATH = "tests/witness_ceilings.json"


def main(base_ref: str) -> int:
    verify = ["git", "rev-parse", "--quiet", "--verify", f"{base_ref}^{{commit}}"]
    if subprocess.run(verify, stdout=subprocess.DEVNULL).returncode:
        print(f"{base_ref} names no commit")
        return 1
    shown = subprocess.run(["git", "show", f"{base_ref}:{PATH}"], capture_output=True, text=True)
    if shown.returncode != 0:
        print(f"{base_ref} has no {PATH}: nothing to compare")
        return 0
    base, head = json.loads(shown.stdout), json.loads(Path(PATH).read_text())
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
    print(f"{len(base)} points at {base_ref}, {lowered} ceilings lowered, {len(faults)} faults")
    for fault in faults:
        print(fault)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
