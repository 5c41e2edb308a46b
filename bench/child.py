"""One workload process, fresh: import the CLI once, then run command lists
through ``qgeodesic.cli.main(argv)``.

Usage::

    child.py --probe SPEC   run SPEC's commands once, cold, and print one
                            JSON line with the import time, the time the
                            commands took and their outputs
    child.py SPEC           print a ready line, then run one pass of SPEC's
                            commands for each ``plain`` or ``traced`` line on
                            standard input and print the pass as a JSON line;
                            ``end`` prints the final report and exits

SPEC is a JSON file with the keys ``commands`` (argv lists) and ``work_dir``
(where every ``--out`` goes).  The harness in ``run.py`` decides how many
passes to run and starts probes between them, while this process waits.
"""

import sys
import time

import qgeodesic.cli

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402  (imported after the set-up timestamp)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def run_command(argv, out_path):
    """Run one command; returns (exit code, latency s, stdout text)."""
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = qgeodesic.cli.main(argv + ["--out", out_path])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed command, not a harness error
            code = f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start, stdout.getvalue()


def read_output(path):
    """The command's output file, or "" if it wrote none."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        return ""


def run_pass(spec, traced):
    """One pass over the spec's commands; returns (record, output texts)."""
    commands = spec["commands"]
    out_paths = [os.path.join(spec["work_dir"], f"cmd{i:04d}.out")
                 for i in range(len(commands))]
    codes, latencies, stdouts = [], [], []
    tracer = None
    with contextlib.ExitStack() as stack:
        if traced:
            import layers
            tracer = stack.enter_context(layers.Tracer())
        start = time.perf_counter()
        for argv, out_path in zip(commands, out_paths):
            code, latency, stdout = run_command(argv, out_path)
            codes.append(code)
            latencies.append(latency)
            stdouts.append(stdout)
        wall = time.perf_counter() - start
    outputs = [read_output(path) for path in out_paths]
    digests = [hashlib.sha256(f"{out}\0{std}".encode()).hexdigest()
               for out, std in zip(outputs, stdouts)]
    return {
        "traced": traced,
        "wall_s": wall,
        "latencies_s": latencies,
        "codes": codes,
        "digests": digests,
        "layers": tracer.metrics() if tracer else None,
    }, outputs


def emit(document):
    print(json.dumps(document), flush=True)


def identity():
    return {"imported_at": IMPORTED_AT, "qgeodesic_file": qgeodesic.cli.__file__}


def probe(spec):
    record, outputs = run_pass(spec, traced=False)
    emit({**identity(), "cold_s": record["wall_s"], "codes": record["codes"],
          "outputs": outputs})


def serve(spec):
    emit(identity())
    first_outputs = None
    for line in sys.stdin:
        if line.strip() == "end":
            break
        record, outputs = run_pass(spec, traced=line.strip() == "traced")
        if first_outputs is None:
            first_outputs = outputs
        emit(record)
    import numpy
    emit({
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outputs": first_outputs,
    })


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    if sys.argv[1] == "--probe":
        probe(load(sys.argv[2]))
    else:
        serve(load(sys.argv[1]))
