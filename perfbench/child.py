"""One workload pass in a fresh interpreter.

Usage: python3 child.py JOB_JSON

JOB_JSON holds ``workload``, ``seed``, ``index``, ``trace``, ``cache_dir``,
``setup_only`` and ``plant``.  The child imports ``repspace.cli`` from the
checkout's ``src``, creates the fresh cache directory (that is set-up),
then runs each command through ``repspace.cli.main(argv)`` with its
output captured, checks the answer, and prints one JSON line.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    job = json.loads(sys.argv[1])
    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    from repspace import cli  # set-up ends once this is loaded

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"repspace was imported from {cli.__file__}, not from {src}")

    Path(job["cache_dir"]).mkdir(parents=True)
    out = {"ready": time.monotonic()}
    if job["setup_only"]:
        print(json.dumps(out))
        return 0

    import workloads

    commands = workloads.pass_commands(
        job["workload"], job["seed"], job["index"], job["cache_dir"]
    )
    expected = workloads.load_expected(job.get("plant"))
    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.install()
    failures = []
    wall = 0.0
    for op, cmd in enumerate(commands):
        if tracer is not None:
            tracer.begin_op(op)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(list(cmd.argv))
        except Exception:
            rc = None
            reason = "uncaught " + traceback.format_exc().strip().splitlines()[-1]
        wall += time.perf_counter() - start
        if rc is not None:
            reason = workloads.check(cmd, rc, stdout.getvalue(), expected)
            if reason is not None and stderr.getvalue():
                reason += f" ({stderr.getvalue().strip().splitlines()[-1]})"
        if reason is not None:
            failures.append({"op": op, "argv": list(cmd.argv), "reason": reason})
    out.update(
        wall_s=wall,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        attempted=len(commands),
        failures=failures,
    )
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer)
        out["matrices"] = tracer.matrices
        calls = spans.span_calls(tracer)
        out["unexercised"] = [
            s for s in workloads.REQUIRED_SPANS[job["workload"]] if not calls.get(s)
        ]
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
