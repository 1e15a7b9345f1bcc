"""One workload in a fresh process: ``worker.py WORKLOAD SEED SECONDS TRACE [OPS]``.

Started by ``run.py`` with BLAS threads pinned to one.  It caps its own
address space, imports the package from ``src/``, builds the workload's
ops, then runs them in a closed loop with one caller: each op starts when
the previous one has returned and been checked.  Every op runs under a
SIGALRM deadline; an op that raises, misses the deadline or fails its
oracle is recorded as failed with its reason.  The result is one JSON
object on the last line of standard output.

OPS keeps only the first OPS ops of the shuffled order (smoke tests).
A ``:setup`` suffix on the workload (``bundled:setup``) stops after the
ops are built, for the repeated set-up measurement.
"""

from __future__ import annotations

import resource
import sys

ADDRESS_SPACE_CAP = 1 << 30  # bytes; the known unbounded allocation ends as MemoryError
DEADLINE_S = 30.0

# Address space first, so that every later allocation is under the cap.
if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class DeadlineExceeded(BaseException):
    """Raised by the SIGALRM handler; a BaseException so no ``except
    Exception`` in the package can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


KNOWN_FAILURES = (
    "MemoryError",
    "InternalConsistencyError",
    "PreconditionError",
    "BudgetExceededError",
)


def run_op(op) -> tuple:
    """(CPU seconds, wall seconds, failure reason or None, output, or the
    error text on failure).

    The op's time is the CPU time (user and system) this process spends on
    it.  Ops are single-threaded, compute-bound and do no I/O, so on an idle
    machine that is their latency; on a shared virtual machine the wall time
    also holds whatever the hypervisor gives to other tenants meanwhile: on
    a 2-vCPU VM, identical CPU-bound steps took 0.31-0.56 s of wall time
    while their CPU time stayed within 0.30-0.34 s.
    """
    output = None
    reason = None
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        output = op.run()
    except DeadlineExceeded:
        reason = "deadline"
        output = f"no answer within {DEADLINE_S:g} s"
    except Exception as exc:  # every exception is a counted failure
        name = type(exc).__name__
        reason = name if name in KNOWN_FAILURES else "other"
        output = f"{name}: {exc}"[:200]
    finally:
        cpu = time.process_time() - c0
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    if reason is not None:
        gc.collect()
    return cpu, wall, reason, output


def run_pass(ops) -> list:
    """Every op once, in order; the oracle runs outside the timed region."""
    records = []
    for op in ops:
        cpu, wall, reason, output = run_op(op)
        drift = None
        why = output if reason else None
        if reason is None:
            try:
                why = op.check(output)
            except Exception as exc:  # a malformed answer fails its oracle
                why = f"oracle raised {exc!r}"
            if why is not None:
                reason = "oracle"
            if op.golden is not None:
                drift = workloads.report_digest(output[1]) != op.golden
        del output
        records.append(
            {"kind": op.kind, "name": op.name, "s": cpu, "wall_s": wall, "fail": reason, "why": why, "drift": drift}
        )
    return records


def main(argv) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    limit = int(argv[4]) if len(argv) > 4 else None
    setup_only = workload.endswith(":setup")
    workload = workload.split(":")[0]
    sys.path.insert(0, SRC)
    import traintracks as tt

    if not os.path.samefile(os.path.dirname(tt.__file__), os.path.join(SRC, "traintracks")):
        raise SystemExit("traintracks was not imported from this checkout's src/")
    ops = workloads.build(tt, workload, seed)[:limit]
    # CPU time since the process started: imports and input generation
    result = {"setup_s": time.process_time(), "setup_done": time.monotonic(), "n_ops": len(ops)}
    if not setup_only:
        signal.signal(signal.SIGALRM, _on_alarm)
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(ops))
            took = time.perf_counter() - t0
            if trace or time.perf_counter() - start + took > seconds:
                break
        result["passes"] = passes
        if trace:
            tracer = tracing.Tracer()
            restore = tracer.install()
            try:
                result["traced_pass"] = run_pass(ops)
            finally:
                restore()
            result["layers"] = tracer.metrics()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if workload == "family":
            result["family"] = workloads.family_regimes(tt)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
