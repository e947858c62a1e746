"""Set-up probe: a fresh interpreter that runs one workload op.

    python3 bench/probe.py WORKLOAD REPEATS < request.json

It imports what the workload's op needs, reads the request from stdin,
runs the op, prints "ready", runs it REPEATS more times and prints its
peak resident set size as JSON.  The parent times it from spawn to
"ready".  For the cli workload the op is an `entcheck` child process, so
the peak is that child's.
"""

import json
import resource
import sys


def main() -> int:
    workload, repeats = sys.argv[1], int(sys.argv[2])
    if workload == "cli":
        import procs

        env = procs.child_env()
        request = json.loads(sys.stdin.read())

        def op():
            return procs.entcheck(request["argv"], env)
        who = resource.RUSAGE_CHILDREN
    else:
        import inproc

        request = json.loads(sys.stdin.read())
        if workload == "sweep":
            def op():
                return inproc.sweep(request["spec"])
        else:
            raw = request["raw"].encode("utf-8")

            def op():
                return inproc.analyze(raw, request["format"])
        who = resource.RUSAGE_SELF
    op()
    print("ready", flush=True)
    for _ in range(repeats):
        op()
    print(json.dumps({"maxrss_kb": resource.getrusage(who).ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
