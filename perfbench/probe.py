"""Fresh-process probe for one workload.

Times the program's set-up from the import of ``fpaxos`` up to the first
simulated event or explored state, and, with ``unit`` set to 1, then runs
one unit of the workload and reports the process's peak RSS.  Prints one
JSON object.

    python3 perfbench/probe.py SRC WORKLOAD SEED PARAMS_JSON 0|1
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    src, name, seed, params, with_unit = argv
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import workloads  # imports fpaxos

    w = workloads.WORKLOADS[name]
    configs = w.configs(int(seed), json.loads(params))
    w.setup(configs)
    out = {"setup_s": time.perf_counter() - t0}
    if with_unit == "1":
        unit = w.unit(configs)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["failures"] = unit.failures
        out["virtual"] = unit.virtual
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
