"""Work done in fresh processes: ``python3 -m perfbench.child <kind> <json arg>``.

Prints one JSON object.  ``import_s`` is the time of the first import of the
package in the process, taken inside the child before anything else is
imported.  ``main_s`` is the time of the work after it, taken with the speed
kernel sampled (speed.py) and scaled to the reference speed; the last line
of stderr hands the samples to the parent, which times the whole process.

kinds:
  setup <workload>   import, plus the workload's own set-up and warm-up
  cover_pass         one cover_sweep pass through the pipeline entry points
  cover_walk         the same pass stage by stage, with spans
  cli <argv>         skeincalc.cli.main(argv) with stdout captured
  cli_walk <argv>    the computation behind one CLI call, stage by stage
"""

from __future__ import annotations

import sys
from time import perf_counter


def main() -> int:
    kind = sys.argv[1]
    t0 = perf_counter()
    if kind == "cli":
        import skeincalc.cli
    else:
        import skeincalc  # noqa: F401
    import_s = perf_counter() - t0

    import json

    from .speed import Speedometer

    arg = json.loads(sys.argv[2]) if len(sys.argv) > 2 else None
    with Speedometer() as sp:
        t1 = sp.clock()
        out = work(kind, arg, sp.clock)
        work_s = sp.clock() - t1
    out["import_s"] = import_s
    out["main_s"] = out.get("main_s", work_s) * sp.scale()
    print(json.dumps(out))
    print(sp.report(work_s), file=sys.stderr)
    return 0


def work(kind: str, arg, clock) -> dict:
    import contextlib
    import io

    import skeincalc

    from . import walk
    from .gen import CONGRUENCE_PRIMES
    from .tracing import NullTracer, Tracer

    out: dict = {}
    t1 = clock()
    if kind == "setup":
        if arg == "algebra_queries":
            walk.warm_residue_tables(CONGRUENCE_PRIMES, NullTracer)
    elif kind == "cover_pass":
        out["results"] = walk.plain_cover_pass()
    elif kind == "cover_walk":
        tr = Tracer()
        tr.op = 0
        out["results"], values = tr.call("op.cover_pass", walk.staged_cover_pass, tr)
        out["main_s"] = clock() - t1
        info = skeincalc.skein.hopf_bracket.cache_info()
        out["hopf_hits"], out["hopf_misses"] = info.hits, info.misses
        out["coeff_bits"] = walk.coeff_bits(values)
        out["spans"] = tr.spans
        # the staged result must equal the pipeline's own entry point
        out["staged_matches"] = all(
            skeincalc.cover_invariant_valuation(int(p)) == v
            for p, v in out["results"]["valuation"].items())
    elif kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            out["rc"] = skeincalc.cli.main(arg)
        out["stdout"] = buf.getvalue()
    elif kind == "cli_walk":
        tr = Tracer()
        tr.op = 0
        values, out["verdicts"] = tr.call("op.cli", walk.cli_stages, arg, tr)
        info = skeincalc.skein.hopf_bracket.cache_info()
        out["hopf_hits"], out["hopf_misses"] = info.hits, info.misses
        out["coeff_bits"] = walk.coeff_bits(values) if values else 0
        out["spans"] = tr.spans
    else:
        raise SystemExit(f"unknown child kind {kind!r}")
    return out


if __name__ == "__main__":
    sys.exit(main())
