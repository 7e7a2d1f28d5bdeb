"""Write expected.json: the verdict table of every call of every workload.

The output gate in worker.py compares each call's (check id, status)
table with this record.  Run from the root of a source checkout:

    PYTHONPATH=src:perfbench python3 perfbench/record_expected.py
"""

import json
import re
from pathlib import Path

import workloads
from crsphere import suites
from worker import verdict_table


def main():
    record = {}
    for name in workloads.WORKLOADS:
        record[name] = [
            verdict_table(suites.run_suite(suites.Config(**kw)))
            for kw in workloads.calls(name, 0)
        ]
    path = Path(__file__).resolve().parent / "expected.json"
    text = json.dumps(record, indent=1)
    # One [id, status] pair per line.
    text = re.sub(r'\[\s+("[^"]*"),\s+("[^"]*")\s+\]', r"[\1, \2]", text)
    path.write_text(text + "\n")


if __name__ == "__main__":
    main()
