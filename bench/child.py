"""One benchmark pass in a fresh interpreter; started by run.py.

argv[1] is a JSON spec: {"spawned_at": <time.monotonic() of the parent just
before it started this process>, "workload": <name or null>, "inputs": {...},
"trace": <bool>, "workdir": <directory for output files>}.  The monotonic
clock is system-wide, so its difference to the moment `saddle_forge.cli`
(and numpy with it) is imported is the set-up a CLI user pays.  With a null
workload the process stops there.

Prints one JSON line on stdout.
"""
import json
import sys
import time


def main():
    spec = json.loads(sys.argv[1])
    import saddle_forge.cli  # noqa: F401
    result = {"setup_s": time.monotonic() - spec["spawned_at"]}
    if spec["workload"] is not None:
        import platform
        import resource

        import numpy

        import tracing
        import workloads

        rec = tracing.Recorder()
        tracing.install(rec, full=spec["trace"])
        wall, outcome, outputs = workloads.run_pass(
            spec["workload"], spec["inputs"], spec["workdir"], rec)
        result.update(
            wall_s=wall, attempted=outcome.attempted, failed=outcome.failed,
            errors=outcome.errors, outputs=outputs,
            solve_s=rec.durations("periods.solve_periods"),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss/1024.0,
            sizes={"solves": rec.counts["periods.solve_periods.calls"],
                   "piece_faces": rec.sizes.get("piece_faces", 0),
                   "tower_faces": rec.sizes.get("tower_faces", 0)},
            python=platform.python_version(), numpy=numpy.__version__)
        if spec["trace"]:
            result["layers"] = tracing.layer_metrics(rec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
