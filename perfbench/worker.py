"""One timed pass over a workload's analyses, in a fresh process.

Run by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and the job
as JSON on stdin: ``{"trace": bool, "analyses": [[argv, ...], ...]}``.  It
calls ``toricroots.cli.main`` in-process with stdout captured and writes one
JSON line per event to its own stdout: the set-up time with the
calibration kernel's times (``calibrate.py``) on either side of it, one
record per analysis (the kernel's time right before it, its wall seconds,
then exit code, stdout and stderr of each command), and a last record with
the kernel's time after the last analysis, the peak resident memory and,
when tracing, the layer totals.  Only the commands of an analysis are inside
its timer.
"""

import sys
import time

import calibrate

for _ in range(3):  # the kernel's first calls are slower
    _kernel_before = calibrate.sample()
# Nothing but sys, time and gc (built in) is imported before this timer, so
# the set-up time holds every module the program itself pulls in.
_start = time.perf_counter()
import toricroots.cli  # noqa: E402

SETUP_S = time.perf_counter() - _start
SETUP_KERNEL_S = [_kernel_before, calibrate.sample()]

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402


def run_command(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = toricroots.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed analysis, not a crash
            code = f"raised {type(exc).__name__}: {exc}"
    return [code, out.getvalue(), err.getvalue()]


def peak_rss_mb():
    """Peak resident memory of this process since it started the worker.

    Not ``getrusage``: on Linux its ``ru_maxrss`` carries over the peak of
    the parent's memory at the fork, so it would grow with ``run.py``'s.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main():
    job = json.load(sys.stdin)
    emit = sys.stdout
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.install()
    emit.write(json.dumps({"setup_s": SETUP_S, "kernel_s": SETUP_KERNEL_S}) + "\n")
    for commands in job["analyses"]:
        kernel_s = calibrate.sample()
        start = time.perf_counter()
        results = [run_command(argv) for argv in commands]
        seconds = time.perf_counter() - start
        emit.write(json.dumps({"kernel_s": kernel_s, "seconds": seconds, "results": results}) + "\n")
    emit.write(json.dumps({
        "rss_mb": peak_rss_mb(),
        "kernel_s": calibrate.sample(),
        "trace": tracer.totals() if tracer else None,
    }) + "\n")
    emit.flush()


if __name__ == "__main__":
    main()
