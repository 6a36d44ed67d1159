"""One fresh-interpreter invocation of `instaqc.cli.main`, driven by run.py.

Usage: python3 child.py '<json request>'

The request holds "mode" ("plain", "traced" or "warmup"), "argv" and
"spans" (where a traced run writes its spans).  A warm-up run also reports
the versions it ran with.  The child prints
"ready" as soon as `instaqc.cli` is imported, so the parent can time set-up,
then one JSON line with its results.
"""
import json
import os
import resource
import sys
import time


def _blas() -> dict:
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no mode argument
        return {"name": None, "version": None}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _info() -> dict:
    import platform

    import numpy
    import scipy

    import instaqc
    return {
        "instaqc_file": os.path.realpath(instaqc.__file__),
        "instaqc_version": instaqc.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }


def _run(request: dict) -> dict:
    import instaqc.cli

    argv = request["argv"]
    tracer = None
    if request["mode"] == "traced":
        import spans
        tracer = spans.Tracer()
        bindings = spans.install(tracer)
    try:
        start = time.perf_counter()
        code = instaqc.cli.main(argv)
        main_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            spans.uninstall(bindings)
    result = {"exit_code": code, "main_s": main_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        with open(request["spans"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
        result["summary"] = spans.summarize(tracer)
    return result


def main() -> None:
    import instaqc.cli  # noqa: F401  (set-up ends here)

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    request = json.loads(sys.argv[1])
    result = _run(request)
    if request["mode"] == "warmup":
        result["info"] = _info()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
