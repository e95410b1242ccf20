"""Run the frontier case in a process of its own.

run.py starts this script in a traced run, so that the case, which runs
past its deadline at the seed, can be killed and its memory does not count
toward the workload's peak. Protocol, one JSON object per line: the worker
writes {"ready": true} once inqcheck is imported, then reads jobs
{"qbf": PATH, "stem": PATH} from stdin and answers each with
{"verdict": "0:SUPPORTED"} or {"error": EXCEPTION_CLASS}.
"""

from __future__ import annotations

import json
import sys

import bootstrap


def main() -> int:
    bootstrap.load_inqcheck()
    from tracing import plain_api
    from workloads import run_compiled

    # the CLI's own output is captured per call; the protocol keeps this one
    channel = sys.stdout

    def emit(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    api = plain_api()
    emit({"ready": True})
    for line in sys.stdin:
        job = json.loads(line)
        try:
            emit({"verdict": run_compiled(api.main, job["qbf"], job["stem"])})
        except Exception as e:  # reported to the parent as a failed case
            emit({"error": type(e).__name__})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
