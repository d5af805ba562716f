"""Tests for the benchmark's own code: generators, answer gates, spans."""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from skeincalc import AbelianGroup, CycInt, congruence, homology_from_matrix, kappa  # noqa: E402
from skeincalc.cli import main  # noqa: E402
from skeincalc.congruence import CongruenceVerdict  # noqa: E402
from skeincalc.linkform import TorsionElement, pair  # noqa: E402

from perfbench import check, gen, speed, walk, workloads  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.tracing import NullTracer, Tracer, self_times, totals  # noqa: E402


def ring_facts():
    return {p: (len(kappa(p).coeffs), congruence.kappa_order(p)) for p in gen.CONGRUENCE_PRIMES}


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_algebra_block_is_deterministic_per_seed():
    facts = ring_facts()
    a = gen.algebra_block(random.Random(7), facts)
    b = gen.algebra_block(random.Random(7), facts)
    c = gen.algebra_block(random.Random(8), facts)
    assert a == b
    assert a != c


def test_algebra_block_is_stratified():
    facts = ring_facts()
    for seed in (1, 2):
        block = gen.algebra_block(random.Random(seed), facts)
        kinds = [q["kind"] for q in block]
        assert kinds.count("form") == gen.FORMS_PER_BLOCK
        assert kinds.count("matrix") == gen.MATRICES_PER_BLOCK
        kappa_keys = sorted((q["p"], q["mode"], q["planted"]) for q in block if q["kind"] == "kappa")
        assert kappa_keys == sorted((p, m, pl) for p in gen.CONGRUENCE_PRIMES
                                    for m in ("strict", "phase") for pl in (True, False))


def test_cli_session_is_deterministic_and_stratified():
    a = gen.cli_session(random.Random(3))
    assert a == gen.cli_session(random.Random(3))
    assert a != gen.cli_session(random.Random(4))
    assert sorted(call[0] for call in a) == sorted(
        ["invariant"] * 2 + ["valuation"] * 3 + ["hopf", "cover", "homology", "orbit-check"])


# ---------------------------------------------------------------------------
# answer gates: each accepts the true answer and rejects a corrupted one
# ---------------------------------------------------------------------------

def pinned_pass():
    return {"cover": {p: dict(v) for p, v in gen.PINS["cover"].items()},
            "valuation": dict(gen.PINS["valuation"]), "cm_bound": dict(gen.PINS["cm_bound"])}


def test_cover_gate_accepts_pins_and_rejects_a_flipped_coefficient():
    assert check.check_cover_pass(pinned_pass()) is None
    bad = pinned_pass()
    value = dict(bad["cover"]["7"]["value"])
    value["coeffs"] = [value["coeffs"][0] + 1] + value["coeffs"][1:]
    bad["cover"]["7"]["value"] = value
    assert check.check_cover_pass(bad)
    bad = pinned_pass()
    bad["valuation"]["13"] = 54
    assert check.check_cover_pass(bad)


def test_staged_pass_matches_pins_at_small_primes():
    tr = Tracer()
    values = [walk.invariant_stages(p, tr) for p in (5, 7)]
    for p, (value, strict, phase) in zip(("5", "7"), values):
        pin = gen.PINS["cover"][p]
        assert value.to_json() == pin["value"]
        assert strict.congruent == pin["congruent"] == phase.congruent
    assert {s[0] for s in tr.spans} >= {"skein.omega", "skein.hopf", "invariants.bracket",
                                        "congruence.check", "congruence.phase_check"}


def kappa_queries(seed):
    facts = ring_facts()
    rng = random.Random(seed)
    return [gen.kappa_query(rng, p, *facts[p], mode, planted)
            for p in (5, 13, 29) for mode in ("strict", "phase") for planted in (True, False)]


def test_kappa_gate_accepts_answers_and_rejects_corruptions():
    oracle = check.KappaOracle(kappa, congruence.kappa_order)
    for q in kappa_queries(11):
        x = walk.kappa_element(q)
        truth = q["planted"] or oracle.congruent(x, q["p"])
        verdict = walk.run_kappa(q, x, NullTracer)
        assert check.check_kappa(q, x, verdict, truth, kappa) is None
        flipped = CongruenceVerdict(not verdict.congruent, verdict.witness, 0)
        assert check.check_kappa(q, x, flipped, truth, kappa)
        if q["planted"] and q["mode"] == "strict":
            m, n = verdict.witness
            wrong = CongruenceVerdict(True, (m, (n + 1) % q["p"]), 0)
            assert check.check_kappa(q, x, wrong, truth, kappa)


def test_kappa_oracle_agrees_with_the_residue_table():
    oracle = check.KappaOracle(kappa, congruence.kappa_order)
    rng = random.Random(5)
    for p in (5, 7, 13):
        N = len(kappa(p).coeffs)
        for m in range(0, congruence.kappa_order(p), 3):
            x = kappa(p) ** m * rng.randrange(p) + CycInt(kappa(p).modulus,
                                                          [rng.randint(-9, 9) * p for _ in range(N)])
            assert oracle.congruent(x, p)
        x = CycInt(kappa(p).modulus, [1, 1] + [0] * (N - 2))
        assert oracle.congruent(x, p) == congruence.check_kappa_congruence(x, p).congruent


def test_form_gate_accepts_answers_and_rejects_corruptions():
    rng = random.Random(21)
    seen_false = seen_picks = False
    for _ in range(40):
        q = gen.form_query(rng)
        form, dual, simple, picks, complement = walk.run_form(q, NullTracer)
        assert check.check_form(q, form, dual, simple, picks, complement, pair) is None
        bad_dual = TorsionElement([dual.values[0] + 1] + list(dual.values[1:]))
        assert check.check_form(q, form, bad_dual, simple, picks, complement, pair)
        assert check.check_form(q, form, dual, not simple, picks, complement, pair)
        assert check.check_form(q, form, dual, simple, picks, not complement, pair)
        seen_false |= not q["expect_complement"]
        seen_picks |= bool(picks)
    assert seen_false and seen_picks


def test_homology_gate_accepts_answers_and_rejects_corruptions():
    rng = random.Random(4)
    for _ in range(30):
        q = gen.matrix_query(rng)
        group = walk.run_matrix(q, NullTracer)
        assert check.check_homology(q["rows"], group) is None
        if group.free_rank:
            bad = AbelianGroup(group.free_rank - 1, group.torsion)
        else:
            bad = AbelianGroup(0, list(group.torsion[:-1]) + [group.torsion[-1] * 2]
                               if group.torsion else [2])
        assert check.check_homology(q["rows"], bad)


def test_invariant_factors_agree_with_smith_form():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
        free, torsion = check.invariant_factors(rows)
        group = homology_from_matrix(rows)
        assert (free, torsion) == (group.free_rank, list(group.torsion))


def test_expected_cli_stdout():
    assert check.expected_stdout(["homology", "--matrix=0,5;5,5"]) == "Z_5 ⊕ Z_5\n"
    assert check.expected_stdout(["homology", "--matrix=1,2;2,4"]) == "Z\n"
    assert check.expected_stdout(["homology", "--matrix=1,0;0,1", "--json"]) == (
        '{"homology": {"free_rank": 0, "torsion": []}, "matrix": "1,0;0,1"}\n')
    pinned = check.expected_stdout(["invariant", "--p", "7"])
    assert "84 - 56ζ14^2 - 63ζ14^3 + 63ζ14^4 + 56ζ14^5" in pinned
    assert "-2ζ20 + 4ζ20^3 - ζ20^5 - 2ζ20^7" in check.expected_stdout(["invariant", "--p", "5"])
    for p in ("5", "7", "11"):
        record = json.loads(check.expected_stdout(["valuation", "--p", p, "--json"]))
        assert record["valuation"] == gen.PINS["valuation"][p]


def test_expected_stdout_matches_the_cli_byte_for_byte():
    rng = random.Random(2)
    for argv in gen.cli_session(rng):
        if argv[0] in ("valuation", "invariant"):
            continue  # slow pipelines; their pinned bytes are checked above
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        assert buf.getvalue() == check.expected_stdout(argv)


def test_cover_sweep_ends_and_counts_failures_when_every_pass_fails(monkeypatch):
    def bench_child(ctx, kind, arg=None):
        if kind == "setup":
            return 0.1, {"import_s": 0.01, "main_s": 0.0}, None
        return 0.01, None, f"{kind} exited 1: InconsistencyError: odd valuation"

    monkeypatch.setattr(workloads, "bench_child", bench_child)
    ctx = workloads.Context(str(ROOT), {}, 1, 0.2)
    for trace in (False, True):
        res = workloads.cover_sweep(ctx, trace)
        assert res.attempted >= 1
        assert res.failed == res.attempted
        assert "InconsistencyError" in res.errors[0]


# ---------------------------------------------------------------------------
# speed references
# ---------------------------------------------------------------------------

def test_speedometer_samples_during_work_and_restores_the_handler():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer() as sp:
        t0, c0 = perf_counter(), sp.clock()
        while perf_counter() - t0 < 10 * speed.INTERVAL_S:
            sum(range(1000))
        raw, work = perf_counter() - t0, sp.clock() - c0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sp.samples) >= 3
    assert 0 < work < raw
    assert sp.scale() > 0


def test_scaled_process_time_splits_start_and_sampled_work():
    ref = speed.REF_START_S
    # no report (a bare CLI process): all of it scales by the bare start
    assert speed.scaled_process_time(0.3, 2 * ref, b"usage: ...\n") == 0.15
    sp = speed.Speedometer()
    sp.samples, sp.spent = [speed.REF_KERNEL_S / 2], 0.1
    stderr = ("warning\n" + sp.report(1.0) + "\n").encode()
    # 0.4 s outside the work at half speed, 1 s of work at twice the speed
    got = speed.scaled_process_time(1.5, 2 * ref, stderr)
    assert abs(got - (0.4 / 2 + 1.0 * 2)) < 1e-9


# ---------------------------------------------------------------------------
# spans and the contract files
# ---------------------------------------------------------------------------

def test_self_times_and_totals():
    spans = [("op.x", None, 0.0, 10.0, None, 0),
             ("a.b", 5, 1.0, 4.0, 0, 0),
             ("c.d", 5, 2.0, 3.0, 1, 0),
             ("probe", None, 11.0, 12.0, None, None)]
    assert self_times(spans) == [7.0, 2.0, 1.0, 1.0]
    busy, by_name, by_prime = totals(spans)
    assert busy == 10.0
    assert by_name == {"a.b": 2.0, "c.d": 1.0}
    assert by_prime[("c.d", 5)] == 1.0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(PER_LAYER.values())
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cover_sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60,
                         env={"PATH": "/usr/bin:/bin"})
    assert out.returncode != 0
    assert out.stdout == ""
