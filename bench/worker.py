"""One repetition of a benchmark job, in a fresh interpreter.

    python -I bench/worker.py SPEC.json

SPEC names the checkout's `src` directory, the result file, whether to
trace, and the jobs: each an argv list for one in-process `gnt.cli.main`
call. The worker imports gnt first and records when that import returned
(`time.monotonic`), so the parent can time set-up from the moment it spawned
this process. It then runs the jobs in order and writes each job's start,
end and error, its own peak RSS, and the recorded spans when tracing, to the
result file. A spec without jobs only measures set-up.

Peak RSS is the kernel's high-water mark of this process's address space
(VmHWM). `ru_maxrss`, from `os.wait4` or `getrusage`, would not do: on exec
Linux folds the forking parent's peak RSS into it.
"""

import json
import os
import sys
import time
import traceback


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import gnt.cli

    imported = time.monotonic()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracing import Tracer

    result = {"imported": imported, "gnt_file": gnt.__file__, "jobs": []}
    tracer = Tracer() if spec["trace"] else None
    entry = gnt.cli.main
    if tracer:
        tracer.install()
        entry = tracer.wrap("cli.main", gnt.cli.main)
    for argv in spec["jobs"]:
        error = None
        start = time.monotonic()
        try:
            code = entry(argv)
            if code != 0:
                error = f"gnt exited with {code}"
        except (Exception, SystemExit):  # a job that raises fails all of its items
            error = traceback.format_exc()
        result["jobs"].append({"start": start, "end": time.monotonic(), "error": error})
    result["spans"] = tracer.spans if tracer else []
    result["peak_rss_kb"] = _peak_rss_kb()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


if __name__ == "__main__":
    raise SystemExit(main())
