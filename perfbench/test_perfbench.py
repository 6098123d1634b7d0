"""Tests of the benchmark's own code: generators, verification and tracing.

Run with ``python3 -m pytest perfbench``.
"""

import random

import pytest

import gtqft.cli
import inputs
import tracer as tracing
import workloads
from gtqft import (
    builtin_from_string,
    check_axioms,
    check_cocommutativity,
    check_frobenius_diagram,
    derive,
    hom_count_oracle,
)
from gtqft.exactlin import Matrix
from gtqft.tqft import Evaluator, closed_invariant


def _generated_valid():
    seen = set()
    for kind, spec in workloads.CERTIFY_RESCALED:
        seen.add((f"rescaled-{kind}", spec))
    for kind, spec, *_ in workloads.SURFACES_CERF + workloads.SURFACES_EVAL + workloads.SURFACES_CLOSED:
        if kind != "group":
            seen.add((kind, spec))
    seen.update(("rich", spec) for spec in workloads.CERTIFY_RICH)
    seen.update((kind, spec) for kind, spec, _ in workloads.FUZZ_ALGEBRAS if kind == "rich")
    return sorted(seen)


def _build(kind, spec, rng):
    if kind.startswith("rescaled-"):
        return inputs.rescaled(inputs.base_algebra(kind.removeprefix("rescaled-"), spec), rng)
    return inputs.base_algebra(kind, spec)


@pytest.mark.parametrize("kind,spec", _generated_valid())
def test_generated_algebras_pass_every_law(kind, spec):
    a = _build(kind, spec, random.Random(0))
    assert check_axioms(a).passed
    d = derive(a)
    assert check_frobenius_diagram(a, d).passed
    assert check_cocommutativity(a, d).passed


def test_rescaling_gives_fractions_and_keeps_invariants():
    group = builtin_from_string("dihedral:4")
    a = inputs.base_algebra("group", "dihedral:4")
    b = inputs.rescaled(a, random.Random(5))
    entries = [x for t in b.product.values() for plane in t.data for row in plane for x in row]
    assert any(x.denominator > 1 for x in entries)
    for labels in inputs.flat_labellings(group, 1)[:10]:
        assert closed_invariant(b, labels) == closed_invariant(a, labels) == 1


@pytest.mark.parametrize("seed", range(24))
def test_mutated_algebras_fail_check_with_witness(tmp_path, seed):
    rng = random.Random(seed)
    spec = ("cyclic:3", "cyclic:4", "dihedral:2", "cyclic:5", "symmetric:3", "quaternion8")[seed % 6]
    files = workloads._Files(tmp_path)
    path = files.algebra("m", lambda: inputs.mutated_group_algebra(builtin_from_string(spec), rng))
    job = workloads.Job("m", "check-fail", 1, ("check", "--algebra", path))
    rc, stdout, _ = workloads.run_job(job)
    assert rc == 1
    assert workloads.verify(job, rc, stdout)


def test_flat_labellings_match_the_oracle():
    for spec in ("cyclic:4", "symmetric:3", "quaternion8"):
        group = builtin_from_string(spec)
        for genus in (1, 2):
            assert len(inputs.flat_labellings(group, genus)) == hom_count_oracle(group, genus)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_depend_only_on_the_seed(tmp_path, workload):
    def build(directory, seed):
        directory.mkdir()
        jobs = workloads.build_jobs(workload, seed, directory)
        files = {p.name: p.read_bytes() for p in directory.iterdir()}
        return [(j.name, j.check, j.expect_rc) for j in jobs], files

    first = build(tmp_path / "a", 3)
    assert build(tmp_path / "b", 3) == first
    assert build(tmp_path / "c", 4) != first


def test_verification_rejects_wrong_output():
    job = workloads.Job("f", "fuzz-pass", 0, ("fuzz", "--seed", "1", "--budget", "6", "--count", "5"))
    good = "fuzz: 5 words over budget 6 passed functoriality, rewrite-equality and type checks (seed=1)\n"
    assert workloads.verify(job, 0, good)
    assert not workloads.verify(job, 0, good.replace("5 words", "4 words"))
    assert not workloads.verify(job, 1, good)
    cerf = workloads.Job("c", "cerf-pass", 0, ("cerf",))
    assert not workloads.verify(cerf, 0, "checks: 1 passed, 1 failed\nPASS  a\nFAIL  b")
    orbifold = workloads.Job("o", "orbifold", 0, ("orbifold",), {"dim": 1})
    assert not workloads.verify(orbifold, 0, '{"group": "no-such-group"}')


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer()
    outer = t.open("outer")
    inner = t.open("inner")
    t.close(inner)
    t.close(outer)
    t.end[inner], t.start[inner] = 3.0, 1.0
    t.end[outer], t.start[outer] = 5.0, 0.0
    assert t.self_times() == {"outer": 3.0, "inner": 2.0}
    assert t.call_counts() == {"outer": 1, "inner": 1}


def test_uninstall_restores_every_binding():
    before = (Matrix.__matmul__, Evaluator.__call__, gtqft.cli.derive, gtqft.cli.json)
    t = tracing.Tracer()
    t.install([("tqft.closed_invariant", workloads, "closed_invariant")])
    assert Matrix.__dict__["__matmul__"] is not before[0]
    t.uninstall()
    assert (Matrix.__matmul__, Evaluator.__call__, gtqft.cli.derive, gtqft.cli.json) == before
    assert workloads.closed_invariant is closed_invariant


def _small_jobs(tmp_path):
    files = workloads._Files(tmp_path)
    rich = ["--algebra", files.algebra("rich", lambda: inputs.base_algebra("rich", "cyclic:2"))]
    group = ["--algebra", "builtin:group-algebra", "--group", "symmetric:3"]
    return [
        workloads.Job("cerf", "cerf-pass", 0, ("cerf", *rich, "--case", "202", "--all-labels")),
        workloads.Job(
            "fuzz", "fuzz-pass", 0, ("fuzz", *rich, "--seed", "3", "--budget", "8", "--count", "20")
        ),
        workloads.Job("orbifold", "orbifold", 0, ("orbifold", *group), {"dim": 3}),
        workloads.Job("closed", "closed-sum", 0, None, {"algebra": group, "genus": 1}),
    ]


def test_traced_counts_repeat_exactly(tmp_path):
    jobs = _small_jobs(tmp_path)
    runs = []
    for _ in range(2):
        t = tracing.Tracer()
        t.install([("tqft.closed_invariant", workloads, "closed_invariant")])
        outputs = []
        try:
            for index, job in enumerate(jobs):
                t.current_job = index
                sid = t.open("job")
                outputs.append(workloads.run_job(job))
                t.close(sid)
        finally:
            t.uninstall()
        for job, (rc, stdout, _) in zip(jobs, outputs):
            assert workloads.verify(job, rc, stdout), job.name
        metrics = t.metrics(0.0)
        runs.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert runs[0] == runs[1]
    counts = runs[0]
    assert counts["tqft.labellings"] == 2**4
    assert counts["tqft.piece_hits"] > counts["tqft.piece_misses"] > 0
    assert counts["orbifold.invariant_dim"] == 3
    assert counts["tqft.closed_invariant_calls"] == 18
    assert counts["cobordism.random_calls"] == 20
    assert set(tracing.metric_units()) == set(t.metrics(0.0))
