"""Run one benchmark operation in a fresh interpreter.

    python -m perfbench.child [--trace FILE] cli <dickeqfi arguments...>
    python -m perfbench.child [--trace FILE] oracle --gamma G --tau T --m-max M

``cli`` runs dickeqfi's command line in this process, so that the span
wrappers can be installed first.  ``oracle`` is the verify workload's
library driver: the exact-rational oracle for Dicke twins m = 1..M and
the delayed-arrival check at m = M, printed as one JSON object.  With
``--trace`` the spans are written to FILE as JSON when the operation ends.
"""
from __future__ import annotations

import argparse
import json
import sys


def oracle_driver(argv) -> int:
    parser = argparse.ArgumentParser(prog="oracle")
    parser.add_argument("--gamma", type=float, required=True)
    parser.add_argument("--tau", type=float, required=True)
    parser.add_argument("--m-max", dest="m_max", type=int, required=True)
    args = parser.parse_args(argv)

    from dickeqfi import ladder, oracle

    guard = 2 * args.m_max
    exact = {}
    for m in range(1, args.m_max + 1):
        arm = ladder.build_dicke(m, args.gamma)
        value = oracle.oracle_integral_exact(arm, arm, l=1, max_total_photons=guard)
        exact[str(m)] = str(value)
    check = oracle.oracle_delay_check(
        ladder.build_dicke(args.m_max, args.gamma), args.tau, max_total_photons=guard
    )
    delay = {"exact": check.exact, "bound": check.bound, "reference": check.reference}
    print(json.dumps({"exact": exact, "delay": delay}, sort_keys=True))
    return 0


def main(argv) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    kind, args = argv[0], argv[1:]
    if kind == "cli":
        import dickeqfi.cli

        def run():
            return dickeqfi.cli.main(args)
    elif kind == "oracle":
        def run():
            return oracle_driver(args)
    else:
        print(f"unknown operation kind {kind!r}", file=sys.stderr)
        return 2

    if trace_path is None:
        return run()

    from perfbench.tracing import Tracer, install_all

    tracer = Tracer()
    install_all(tracer)
    try:
        return tracer.wrap(run, "cli" if kind == "cli" else "driver")()
    finally:
        sys.stdout.flush()
        with open(trace_path, "w") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
