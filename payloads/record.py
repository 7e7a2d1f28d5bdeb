"""Write PAYLOADS.json: the payload matrix of matrix.py at this checkout.

Run from the repository root:

    PYTHONPATH=src python payloads/record.py

A change that moves payload bytes re-records the file in the same
commit; its diff then shows which configs moved and by how much, one
line per check.
"""

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import matrix  # noqa: E402


def dumps(data):
    """data as indented JSON, each check's [id, status, residual] on one line."""
    text = json.dumps(data, indent=1)
    return re.sub(r'\[\s+("[^"]*"),\s+("[^"]*"),\s+("[^"]*")\s+\]', r"[\1, \2, \3]", text) + "\n"


def main():
    data = matrix.compute()
    matrix.PAYLOADS.write_text(dumps(data))
    print("wrote %d configs to %s" % (len(data["configs"]), matrix.PAYLOADS))


if __name__ == "__main__":
    main()
