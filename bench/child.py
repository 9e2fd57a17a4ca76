"""One benchmark child: time set-up, then ``matprod run`` in rounds, report as JSON.

Usage::

    python child.py SPEC.json

SPEC.json holds ``src`` (directory that contains the ``matprod`` package),
``argv`` (arguments for ``matprod.cli.main``), ``config`` (the config file
named in ``argv``), ``out`` (the output file it names),
``config_template`` (its text, with ``{seed}`` for the
seed), ``seed0`` (seed of round 0), ``until`` (system monotonic time after
which no further round starts), ``max_rounds``, ``rounds`` (an exact round
count that overrides ``until`` and ``max_rounds``, or null), ``trace``
(bool) and ``result`` (path of the JSON report).

Set-up ends once matprod, numpy, scipy and mpmath are imported and the config
is parsed; ``t_ready`` is that moment on the system monotonic clock, which the
parent compares with the moment it started this process. One untimed round
warms the program up; then round j writes the config with seed ``seed0 + j``
and calls ``main`` once. Before the first timed round and after each one the
child times ``reference``, a fixed piece of work, so that the parent can
scale each round's times to a nominal host speed. With ``trace`` on, the
calls into each layer are wrapped in spans (see ``Tracer``) for the duration
of each timed ``main`` and restored afterwards.
"""
import time

T_START = time.monotonic()

import contextlib
import functools
import inspect
import io
import json
import os
import platform
import resource
import sys
import threading

# Input spread above which stability_from_state takes the extended-precision
# path at the time the benchmark was defined; the benchmark keeps its own copy
# so that the narrow/wide split means the same thing across program changes.
WIDE_SPREAD = 25.0

# The reference work: this many 2x2 real SVDs and Schur forms from a Python
# loop, the mix of one realprob-n1 replication, on fixed inputs (~50 ms).
REF_ITERS = 1200

# Exception classes the experiment runners skip on, matched by name so that a
# class moving between modules does not change the counts.
SKIP_KINDS = ("SingularInputError", "SpreadOverflowError", "NumericError")


class Tracer:
    """Spans around calls into each layer, kept per thread with parent links.

    A span is ``[name, start_ns, end_ns, parent, exception_class]`` with times
    on the thread's CPU clock, so that time a pool worker spends waiting for
    the interpreter lock is not charged to the call it is in. A span opened
    on a thread with no open span of its own (a pool worker) takes the current
    root span, the traced ``main`` call, as its parent.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._saved = []
        self._roots = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.spans = []
            with self._lock:
                self._threads.append(self._local.spans)
        return stack

    def _wrap(self, fn, name_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name_of(args), 0, 0, stack[-1] if stack else self._roots[-1], None]
            self._local.spans.append(span)
            stack.append(span)
            span[1] = time.thread_time_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc)
                raise
            finally:
                span[2] = time.thread_time_ns()
                stack.pop()

        return traced

    def patch(self, owner, attr, name_of):
        """Wrap ``owner.attr`` if it exists; a missing name reads as no calls."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name_of))

    def restore(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def run_root(self, fn, *args):
        stack = self._stack()
        root = ["cli.main", 0, 0, None, None]
        self._roots.append(root)
        stack.append(root)
        root[1] = time.process_time_ns()
        try:
            return fn(*args)
        finally:
            root[2] = time.process_time_ns()
            stack.pop()

    def summary(self):
        """Calls and inclusive CPU time per span name, plus the roots' self time.

        A root span is timed on the process CPU clock, which adds up every
        thread, so its self time is its duration minus its child spans on all
        threads: the runner's own loop, pool and aggregation work.
        """
        roots = {id(root) for root in self._roots}
        names = {}
        errors = dict.fromkeys(SKIP_KINDS + ("other",), 0)
        children_ns = 0
        for spans in self._threads:
            for name, start, end, parent, exc in spans:
                entry = names.setdefault(name, {"calls": 0, "ns": 0})
                entry["calls"] += 1
                entry["ns"] += end - start
                if id(parent) in roots:
                    children_ns += end - start
                    if exc is not None:
                        mro = {k.__name__ for k in exc.__mro__}
                        errors[next((k for k in SKIP_KINDS if k in mro), "other")] += 1
        root_ns = sum(end - start for _, start, end, _, _ in self._roots)
        return {"names": names, "errors": errors, "root_ns": root_ns, "self_ns": root_ns - children_ns}


def install(tracer):
    """Wrap the calls each layer receives from outside it.

    Library calls are wrapped on their modules, since the program looks them
    up there at call time. Program calls are wrapped in the namespace of the
    module that calls them: every function ``matprod.experiments`` imports
    from another matprod module, and the config parser and record writer
    that ``matprod.cli`` calls.
    """
    import mpmath
    import numpy
    import scipy.linalg

    import matprod.cli
    import matprod.experiments

    def fixed(name):
        return lambda args: name

    def stability(args):
        spread = getattr(args[0], "spread", 0.0) if args else 0.0
        return "exponents.stability_wide" if spread > WIDE_SPREAD else "exponents.stability_narrow"

    tracer.patch(numpy.linalg, "svd", fixed("lapack.svd"))
    tracer.patch(numpy.linalg, "eigvals", fixed("lapack.eigvals"))
    tracer.patch(scipy.linalg, "schur", fixed("lapack.schur"))
    tracer.patch(mpmath, "eig", fixed("mpmath.eig"))
    tracer.patch(matprod.cli, "parse_config", fixed("configtext.parse_config"))
    tracer.patch(matprod.cli, "write_records", fixed("recordio.write_records"))
    for attr, fn in sorted(vars(matprod.experiments).items()):
        module = getattr(fn, "__module__", "") or ""
        if not inspect.isfunction(fn) or not module.startswith("matprod."):
            continue
        if module == "matprod.experiments":
            continue
        name = f"{module.rsplit('.', 1)[1]}.{fn.__name__}"
        if name == "exponents.stability_from_state":
            tracer.patch(matprod.experiments, attr, stability)
        else:
            tracer.patch(matprod.experiments, attr, fixed(name))


def machine():
    """Interpreter, library and BLAS versions, and the processor count."""
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def reference():
    """Wall and CPU seconds of the fixed reference work.

    It stands for the host's speed at the moment: the same numpy, LAPACK and
    interpreter paths as the program, on inputs no program change can touch.
    """
    import numpy
    import scipy.linalg

    mats = numpy.random.default_rng(20160111).standard_normal((64, 2, 2))
    wall = time.perf_counter()
    cpu = time.process_time()
    for i in range(REF_ITERS):
        a = mats[i & 63]
        numpy.linalg.svd(a, compute_uv=False)
        scipy.linalg.schur(a)
    return time.perf_counter() - wall, time.process_time() - cpu


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    import mpmath  # noqa: F401
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import matprod.cli
    from matprod.configtext import parse_config

    t_imported = time.monotonic()
    with open(spec["config"], encoding="utf-8") as fh:
        parse_config(fh.read())
    t_ready = time.monotonic()

    def run_once(j, tracer=None):
        with open(spec["config"], "w", encoding="utf-8") as fh:
            fh.write(spec["config_template"].format(seed=spec["seed0"] + j))
        wall = time.perf_counter()
        cpu = time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                rc = matprod.cli.main(spec["argv"])
            else:
                install(tracer)
                try:
                    rc = tracer.run_root(matprod.cli.main, spec["argv"])
                finally:
                    tracer.restore()
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu
        if rc != 0:
            return {"rc": rc}
        with open(spec["out"], encoding="utf-8") as fh:
            return {"rc": rc, "main_wall_s": wall, "main_cpu_s": cpu, "text": fh.read()}

    def more(rounds):
        if spec["rounds"] is not None:
            return len(rounds) < spec["rounds"]
        return not rounds or (len(rounds) < spec["max_rounds"] and time.monotonic() < spec["until"])

    tracer = Tracer() if spec["trace"] else None
    setup_ref = reference()
    warm_up = run_once(0)
    rounds, refs = [], [reference()]
    if warm_up["rc"] != 0:
        rounds.append(warm_up)
    while warm_up["rc"] == 0 and more(rounds):
        rounds.append(run_once(len(rounds), tracer))
        refs.append(reference())
        if rounds[-1]["rc"] != 0:
            break

    result = {
        "t_ready": t_ready,
        "import_s": t_imported - T_START,
        "setup_ref_wall_s": setup_ref[0],
        "rounds": rounds,
        "ref_wall_s": [r[0] for r in refs],
        "ref_cpu_s": [r[1] for r in refs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
        "trace": None if tracer is None else tracer.summary(),
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
