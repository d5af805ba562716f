"""The three workloads.  Each is one closed-loop client in one process: the
next operation starts when the previous one has finished, and at most one
child process runs at a time.

cover_sweep      every pass is a fresh child process, so caches start cold
algebra_queries  one warm process answers a stream of small queries
cli_session      every operation is one ``python -m skeincalc`` process

``WORKLOADS[name](ctx, trace)`` returns a Result.  With trace off it
measures the END_TO_END metrics; with trace on it measures the PER_LAYER
split from a separate traced execution of the same kind of work.

A shared machine's speed drifts by tens of percent over minutes, so every
time is scaled to the reference speed (speed.py), set-up samples are spread
evenly over the run, and times are medians.
"""

from __future__ import annotations

import json
import operator
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

from skeincalc import congruence, linkform, skein

from . import check, gen, walk
from .metrics import layer_split, median, p90
from .speed import Speedometer, scaled_process_time
from .tracing import NullTracer, Tracer

SETUP_SAMPLES = 21
CHILD_TIMEOUT_S = 120


@dataclass
class Context:
    root: str
    env: dict
    seed: int
    seconds: float
    bare_starts: list = field(default_factory=list)


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def report(self) -> dict:
        """Everything a reader needs beyond the gated metrics."""
        extra = {"error_rate": self.failed / self.attempted if self.attempted else None,
                 "operations": len(self.latencies)}
        if len(self.latencies) >= 100:   # at least ten samples beyond p90
            extra["latency_p90_ms"] = p90(self.latencies) * 1e3
        return extra


def _spawn(ctx: Context, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ctx.root, env=ctx.env,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, proc


def child(ctx: Context, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Spawn-to-exit time of one fresh process at the reference speed
    (speed.py), and the process.  A bare interpreter start runs just before
    it; its raw time is kept in ``ctx.bare_starts``."""
    bare, _ = _spawn(ctx, ["-c", "pass"])
    ctx.bare_starts.append(bare)
    wall, proc = _spawn(ctx, args)
    return scaled_process_time(wall, bare, proc.stderr), proc


def bench_child(ctx: Context, kind: str, arg=None) -> tuple[float, dict | None, str | None]:
    """(wall, parsed JSON, error) of one ``perfbench.child`` process."""
    args = ["-m", "perfbench.child", kind] + ([json.dumps(arg)] if arg is not None else [])
    wall, proc = child(ctx, args)
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return wall, None, f"{kind} exited {proc.returncode}: {' '.join(tail)}"
    return wall, json.loads(proc.stdout), None


def peak_rss_mb(client_works: bool) -> float:
    """Peak RSS of the processes that run the package's work: the children,
    plus this process when it answers queries itself."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if client_works:
        peak = max(peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak / 1024


class SetupSampler:
    """Fresh processes that import and set up, each timed from spawn to exit.

    The samples are spread evenly over the run; ``due()`` takes the ones
    whose time has come.
    """

    def __init__(self, ctx: Context, workload: str) -> None:
        self.ctx, self.workload, self.samples = ctx, workload, []
        bench_child(ctx, "setup", workload)     # writes bytecode caches; not timed
        self.start = perf_counter()

    def _take(self) -> None:
        wall, out, err = bench_child(self.ctx, "setup", self.workload)
        if err:
            raise RuntimeError(err)
        self.samples.append(dict(out, wall=wall))

    def due(self) -> None:
        elapsed = perf_counter() - self.start
        while len(self.samples) < min(SETUP_SAMPLES,
                                      1 + int(elapsed * SETUP_SAMPLES / self.ctx.seconds)):
            self._take()

    def finish(self) -> list[dict]:
        while len(self.samples) < SETUP_SAMPLES:
            self._take()
        return self.samples


def end_to_end(res: Result, setups: SetupSampler, pass_times, client_works=False) -> dict:
    lat = res.latencies
    return {"setup_s": median([s["wall"] for s in setups.finish()]),
            "pass_s": median(pass_times),
            "latency_p50_ms": median(lat) * 1e3,
            "ops_per_s": len(lat) / sum(lat),
            "peak_rss_mb": peak_rss_mb(client_works)}


def interpreter_ms(ctx: Context) -> float:
    """Median raw time of the bare interpreter starts the run made."""
    return median(ctx.bare_starts) * 1e3


def process_split(samples) -> dict:
    """cli.* from fresh-process samples carrying import_s, main_s and wall."""
    return {"cli.import_ms": median([s["import_s"] for s in samples]) * 1e3,
            "cli.main_ms": median([s["main_s"] for s in samples]) * 1e3,
            "cli.process_ms": median([s["wall"] for s in samples]) * 1e3}


def hit_ratio(verdicts) -> float:
    return sum(verdicts) / len(verdicts)


# ---------------------------------------------------------------------------
# cover_sweep
# ---------------------------------------------------------------------------

def _cover_verdicts(results: dict) -> list[bool]:
    return [r[k] for r in results["cover"].values() for k in ("congruent", "congruent_up_to_phase")]


def cover_sweep(ctx: Context, trace: bool) -> Result:
    res = Result()
    setups = SetupSampler(ctx, "cover_sweep")
    plain, walks = [], []
    deadline = perf_counter() + ctx.seconds
    # the loop counts attempts, not successes: a program that fails every
    # pass still ends the run, with every pass counted as failed
    while not res.latencies or perf_counter() < deadline:
        setups.due()
        wall, out, err = bench_child(ctx, "cover_pass")
        res.latencies.append(wall)
        res.record(err or check.check_cover_pass(out["results"]))
        if out:
            plain.append(dict(out, wall=wall))
        if trace:
            _, out, err = bench_child(ctx, "cover_walk")
            if not err and not out["staged_matches"]:
                err = "staged valuations differ from cover_invariant_valuation"
            res.record(err or check.check_cover_pass(out["results"]))
            if out:
                walks.append(out)
    if not trace:
        res.metrics = end_to_end(res, setups, res.latencies)
        return res
    if not plain or not walks:
        return res     # no split to report; the failures say why
    measured = {
        **process_split(plain),
        "cli.interpreter_ms": interpreter_ms(ctx),
        "trace.overhead_frac": median([w["main_s"] for w in walks])
        / median([s["main_s"] for s in plain]) - 1,
        "skein.hopf_hits": walks[-1]["hopf_hits"],
        "skein.hopf_misses": walks[-1]["hopf_misses"],
        "cyclotomic.coeff_bits_max": max(w["coeff_bits"] for w in walks),
        "congruence.residue_hit_ratio": hit_ratio(
            [v for w in walks for v in _cover_verdicts(w["results"])]),
    }
    res.metrics = layer_split([w["spans"] for w in walks], len(walks), measured)
    return res


# ---------------------------------------------------------------------------
# algebra_queries
# ---------------------------------------------------------------------------

class AlgebraClient:
    """Runs and checks algebra queries in this (warm) process."""

    def __init__(self) -> None:
        self.kappa = skein.kappa
        self.pair = linkform.pair
        self.ring_facts = {p: (len(skein.kappa(p).coeffs), congruence.kappa_order(p))
                           for p in gen.CONGRUENCE_PRIMES}
        self.oracle = check.KappaOracle(skein.kappa, congruence.kappa_order)

    def prepare(self, q: dict):
        """Operands built outside the timed region, plus the expected verdict."""
        if q["kind"] != "kappa":
            return None, None
        x = walk.kappa_element(q)
        return x, q["planted"] or self.oracle.congruent(x, q["p"])

    def execute(self, q: dict, x, tr):
        if q["kind"] == "kappa":
            return walk.run_kappa(q, x, tr)
        if q["kind"] == "form":
            return walk.run_form(q, tr)
        return walk.run_matrix(q, tr)

    def verify(self, q: dict, x, truth, out) -> str | None:
        if q["kind"] == "kappa":
            return check.check_kappa(q, x, out, truth, self.kappa)
        if q["kind"] == "form":
            return check.check_form(q, *out, self.pair)
        return check.check_homology(q["rows"], out)


def _timed(clock, fn, *args):
    t0 = clock()
    try:
        out, err = fn(*args), None
    except Exception as exc:   # a failed query is counted, the run goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    return clock() - t0, out, err


def algebra_queries(ctx: Context, trace: bool) -> Result:
    res = Result()
    setups = SetupSampler(ctx, "algebra_queries")
    tr = Tracer() if trace else NullTracer
    walk.warm_residue_tables(gen.CONGRUENCE_PRIMES, tr)
    client = AlgebraClient()
    rng = random.Random(ctx.seed)
    block_times, plain_busy, traced_busy, verdicts, bits = [], 0.0, 0.0, [], 0
    deadline = perf_counter() + ctx.seconds
    while not block_times or perf_counter() < deadline:
        setups.due()
        block = gen.algebra_block(rng, client.ring_facts)
        raw = []
        with Speedometer() as sp:
            for q in block:
                x, truth = client.prepare(q)
                dt, out, err = _timed(sp.clock, client.execute, q, x, NullTracer)
                raw.append(dt)
                res.record(err or client.verify(q, x, truth, out))
                if trace:
                    tr.op = len(res.latencies) + len(raw)
                    t_dt, t_out, t_err = _timed(sp.clock, tr.call, f"op.{q['kind']}",
                                                client.execute, q, x, tr)
                    plain_busy += dt
                    traced_busy += t_dt
                    res.record(t_err or client.verify(q, x, truth, t_out))
                    if q["kind"] == "kappa":
                        tr.call("cyclotomic.mul", operator.mul, x, client.kappa(q["p"]), p=q["p"])
                        bits = max(bits, max(abs(c).bit_length() for c in x.coeffs))
                        if t_out is not None:
                            verdicts.append(t_out.congruent)
        scale = sp.scale()
        res.latencies += [dt * scale for dt in raw]
        block_times.append(sum(raw) * scale)
    if not trace:
        res.metrics = end_to_end(res, setups, block_times, client_works=True)
        return res
    measured = {
        **process_split(setups.finish()),
        "cli.interpreter_ms": interpreter_ms(ctx),
        "trace.overhead_frac": traced_busy / plain_busy - 1,
        "skein.hopf_hits": 0,
        "skein.hopf_misses": 0,
        "cyclotomic.coeff_bits_max": bits,
        "congruence.residue_hit_ratio": hit_ratio(verdicts),
        "congruence.kappa_residues_s": sum(
            end - start for name, _, start, end, _, _ in tr.spans
            if name == "congruence.kappa_residues"),
    }
    res.metrics = layer_split([tr.spans], len(block_times), measured)
    return res


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

def cli_call(ctx: Context, argv: list[str], res: Result) -> float:
    expected = check.expected_stdout(argv).encode("utf-8")
    wall, proc = child(ctx, ["-m", "skeincalc", *argv])
    res.latencies.append(wall)
    if proc.returncode != 0:
        res.record(f"{' '.join(argv)} exited {proc.returncode}")
    elif proc.stdout != expected:
        res.record(f"{' '.join(argv)}: stdout differs from the expected bytes")
    else:
        res.record(None)
    return wall


def cli_session(ctx: Context, trace: bool) -> Result:
    res = Result()
    setups = SetupSampler(ctx, "cli_session")
    rng = random.Random(ctx.seed)
    session_times, wrapped, walks, plain_walls = [], [], [], []
    deadline = perf_counter() + ctx.seconds
    while not session_times or perf_counter() < deadline:
        setups.due()
        session = 0.0
        for argv in gen.cli_session(rng):
            wall = cli_call(ctx, argv, res)
            session += wall
            if trace:
                plain_walls.append(wall)
                w_wall, out, err = bench_child(ctx, "cli", argv)
                if not err and (out["rc"] != 0 or out["stdout"] != check.expected_stdout(argv)):
                    err = f"{' '.join(argv)}: wrapped call gave a wrong answer"
                res.record(err)
                if out:
                    wrapped.append(dict(out, wall=w_wall))
                _, out, err = bench_child(ctx, "cli_walk", argv)
                res.record(err)
                if out:
                    walks.append(out)
        session_times.append(session)
    if not trace:
        res.metrics = end_to_end(res, setups, session_times)
        return res
    measured = {
        **process_split(wrapped),
        "cli.process_ms": median(plain_walls) * 1e3,
        "cli.interpreter_ms": interpreter_ms(ctx),
        "trace.overhead_frac": sum(w["wall"] for w in wrapped) / sum(plain_walls) - 1,
        "skein.hopf_hits": sum(w["hopf_hits"] for w in walks) / len(session_times),
        "skein.hopf_misses": sum(w["hopf_misses"] for w in walks) / len(session_times),
        "cyclotomic.coeff_bits_max": max(w["coeff_bits"] for w in walks),
        "congruence.residue_hit_ratio": hit_ratio([v for w in walks for v in w["verdicts"]]),
    }
    res.metrics = layer_split([w["spans"] for w in walks], len(session_times), measured)
    return res


WORKLOADS = {
    "cover_sweep": cover_sweep,
    "algebra_queries": algebra_queries,
    "cli_session": cli_session,
}
