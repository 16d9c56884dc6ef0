"""One benchmarked bellcommit CLI invocation, run as its own process.

Usage, from the root of a checkout::

    python3 perfbench/child.py <trace 0|1> [cli arguments ...]

With no CLI arguments the process only imports ``bellcommit.cli`` and exits,
which samples set-up time alone. Otherwise it calls ``cli.main`` once; the
report goes to standard output untouched. The benchmark's own measurements go
to standard error as the last line, ``PERFBENCH <json>``, so no timing ever
enters the program's report.

Clock readings use ``CLOCK_MONOTONIC``, which is shared by every process on
the host, so the parent can subtract its spawn time from ``ready``.

With tracing on, every public function of each layer module (and
``harness._trial_generator``) is replaced by a span wrapper in every module
namespace that binds it, because the modules import functions by name: the
wrapper for ``qcore.random_unitary`` has to sit at
``bellcommit.protocol.random_unitary`` to see the calls that protocol makes.
The ``__post_init__`` checks of ``StateVector`` and ``Unitary`` are one more
span, ``qcore.validate``. A span's self time is its duration minus the
durations of the spans it encloses.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


LAYERS = ("cli", "reports", "harness", "protocol", "attack", "qcore")
PRIVATE_SPANS = {("harness", "_trial_generator"): "trial_generator"}


class Tracer:
    """In-memory span statistics: per span name, call count and self time."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.flops = 0
        # time covered by child spans, one entry per open span (plus a root)
        self._stack = [0.0]

    def wrap(self, name: str, fn, count_flops=None):
        """Span wrapper for ``fn``; wrappers given the same name share totals."""
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        clock = time.perf_counter

        def span(*args, **kwargs):
            if count_flops is not None:
                self.flops += count_flops(*args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - inner

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        import inspect

        import bellcommit
        from bellcommit import qcore

        modules = {layer: sys.modules[f"bellcommit.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                short = PRIVATE_SPANS.get((layer, attr), attr)
                if short.startswith("_"):
                    continue
                flops = _apply_unitary_flops if fn is qcore.apply_unitary else None
                wrappers[fn] = self.wrap(f"{layer}.{short}", fn, flops)
        for module in (bellcommit, *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        for cls in (qcore.StateVector, qcore.Unitary):
            cls.__post_init__ = self.wrap("qcore.validate", cls.__post_init__)


def _apply_unitary_flops(state, u) -> int:
    # dense complex matrix-vector product: state.dim * u.dim complex
    # multiply-adds, 8 real floating-point operations each
    return 8 * state.dim * u.dim


def _blas() -> str | None:
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return None
    return f"{info.get('name')} {info.get('version')}"


def main(argv: list[str]) -> int:
    trace = argv[0] == "1"
    cli_args = argv[1:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from bellcommit import cli

    ready = _now()
    result: dict = {"ready": ready}
    code = 0
    if cli_args:
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        code = cli.main(cli_args)
        sys.stdout.flush()
        result["work_s"] = time.perf_counter() - start
        if tracer is not None:
            result["calls"] = tracer.calls
            result["self_s"] = tracer.self_s
            result["flops"] = tracer.flops
    else:
        import numpy

        result["numpy"] = numpy.__version__
        result["blas"] = _blas()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stderr.write("PERFBENCH " + json.dumps(result) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
