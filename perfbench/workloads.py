"""Workload definitions: seeded job lists and the verification of each job.

A job is one in-process ``gtqft.cli.main(argv)`` call, or, for closed
surfaces (which have no CLI command), one library computation over every
flat labelling of a surface.  Each workload has a fixed menu of job slots;
the seed only picks the rational rescaling constants, the mutation sites,
the labellings, the fuzz seeds and the job order.  That keeps the amount of
work per pass nearly the same at every seed, so runs at different seeds
can be compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from gtqft import GFrobeniusAlgebra, cli, closed_surface_word, save_algebra
from gtqft.algebra import group_algebra, load_algebra
from gtqft.errors import EngineError
from gtqft.groups import builtin_from_string, conjugacy
from gtqft.tqft import closed_invariant, hom_count_oracle

import inputs

# --- menus -----------------------------------------------------------------
# Each workload has at least 110 jobs, so that at least ten lie beyond the
# 90th percentile of the job times.

# certify: law checks, derive and orbifold; the evaluator does no work.
CERTIFY_GROUPS = (
    "cyclic:6", "cyclic:7", "cyclic:8", "cyclic:9", "cyclic:10", "cyclic:12", "cyclic:24",
    "dihedral:3", "dihedral:4", "dihedral:5", "dihedral:6", "dihedral:8", "symmetric:3",
    "symmetric:4", "quaternion8",
)
CERTIFY_RICH = ("cyclic:2", "cyclic:3", "cyclic:4", "dihedral:3", "dihedral:4", "quaternion8")
CERTIFY_RESCALED = (
    ("group", "cyclic:6"), ("group", "cyclic:8"), ("group", "symmetric:3"),
    ("group", "dihedral:4"), ("group", "quaternion8"), ("group", "cyclic:12"),
    ("rich", "cyclic:4"), ("rich", "dihedral:3"),
)
# Where a check on a mutated algebra stops depends on the mutation site,
# so its time follows the seed.  Small groups keep every one of these jobs
# below the median job time, so the median does not follow the seed.
CERTIFY_MUTATED = ("cyclic:3", "cyclic:4", "dihedral:2", "cyclic:5") * 6

# surfaces: the evaluator with heavy piece reuse; no law loops.
CERF_CASES = ("111", "202", "301", "103")
SURFACES_CERF = (
    ("group", "cyclic:4", CERF_CASES),
    ("group", "dihedral:2", CERF_CASES),
    ("group", "dihedral:4", ("111",)),
    ("group", "cyclic:8", ("111",)),
    ("rich", "cyclic:4", CERF_CASES),
    ("rich", "dihedral:2", CERF_CASES),
    ("rescaled-group", "symmetric:3", CERF_CASES),
    ("rescaled-group", "cyclic:4", CERF_CASES),
)
# algebras whose closed surfaces are evaluated by `eval`
SURFACES_EVAL = (
    ("group", "symmetric:3"), ("group", "dihedral:4"), ("group", "quaternion8"),
    ("group", "cyclic:8"), ("rich", "cyclic:3"), ("rich", "cyclic:4"),
    ("rich", "dihedral:2"), ("rich", "dihedral:3"), ("rescaled-group", "symmetric:3"),
    ("rescaled-group", "dihedral:4"), ("rescaled-group", "quaternion8"), ("rescaled-rich", "cyclic:4"),
)
# (genus, flat labellings drawn per algebra)
SURFACES_EVAL_COUNTS = ((1, 4), (2, 3))
SURFACES_CLOSED = (
    ("group", "symmetric:3", 1),
    ("group", "dihedral:4", 1),
    ("group", "quaternion8", 1),
    ("group", "cyclic:4", 2),
    ("group", "dihedral:2", 2),
    ("rescaled-group", "symmetric:3", 1),
    ("rescaled-group", "dihedral:4", 1),
    ("rescaled-group", "cyclic:4", 2),
)

# fuzz: the evaluator on words that are all new.  Rich algebras stop at
# budget 10: their words at budget 12 are so unequal in cost that the job
# times would depend more on the seed than on the program.
_GROUP_BUDGETS = (6, 8, 10, 12)
_RICH_BUDGETS = (6, 8, 10)
FUZZ_ALGEBRAS = tuple(
    [("group", spec, _GROUP_BUDGETS) for spec in (
        "cyclic:3", "cyclic:4", "dihedral:2", "cyclic:5", "cyclic:6",
        "cyclic:7", "cyclic:8", "symmetric:3", "dihedral:4", "quaternion8",
    )]
    + [("rich", spec, _RICH_BUDGETS) for spec in (
        "cyclic:2", "cyclic:3", "cyclic:4", "dihedral:3", "dihedral:4", "quaternion8",
    )]
)
FUZZ_REPEATS = 2
FUZZ_WORDS = 200

WORKLOADS = ("certify", "surfaces", "fuzz")


@dataclass(frozen=True)
class Job:
    """One unit of timed work and what its output must satisfy.

    ``argv`` is the CLI argument list; a job without one is a closed-surface
    job described by ``data``.  ``check`` names the verifier and
    ``expect_rc`` the exit status the job was generated to give.
    """

    name: str
    check: str
    expect_rc: int
    argv: tuple[str, ...] | None = None
    data: dict = field(default_factory=dict, compare=False)


class _Files:
    """Writes each generated algebra once, under a stable relative name."""

    def __init__(self, root: Path):
        self.root = root
        self.paths: dict[str, str] = {}

    def algebra(self, key: str, build) -> str:
        if key not in self.paths:
            path = self.root / f"{key.replace(':', '')}.json"
            path.write_text(json.dumps(save_algebra(build()), sort_keys=True), encoding="utf-8")
            self.paths[key] = str(path)
        return self.paths[key]

    def text(self, key: str, text: str) -> str:
        path = self.root / f"{key.replace(':', '')}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)


def _algebra_source(files: _Files, rng: random.Random, kind: str, spec: str) -> list[str]:
    """CLI arguments selecting the algebra; generated algebras go to files."""
    if kind == "group":
        return ["--algebra", "builtin:group-algebra", "--group", spec]
    if kind == "rich":
        return ["--algebra", files.algebra(f"rich-{spec}", lambda: inputs.base_algebra("rich", spec))]
    base = kind.removeprefix("rescaled-")
    return [
        "--algebra",
        files.algebra(f"{kind}-{spec}", lambda: inputs.rescaled(inputs.base_algebra(base, spec), rng)),
    ]


def _orbifold_dim(kind: str, spec: str) -> int:
    grade = 2 if kind.endswith("rich") else 1
    return grade * len(conjugacy(builtin_from_string(spec)).classes)


def _certify(files: _Files, rng: random.Random) -> list[Job]:
    slots = [("group", spec) for spec in CERTIFY_GROUPS]
    slots += [("rich", spec) for spec in CERTIFY_RICH]
    slots += [(f"rescaled-{kind}", spec) for kind, spec in CERTIFY_RESCALED]
    jobs = []
    for kind, spec in slots:
        src = _algebra_source(files, rng, kind, spec)
        group = builtin_from_string(spec)
        tag = f"{kind}-{spec}"
        jobs.append(Job(f"check {tag}", "check-pass", 0, ("check", *src)))
        jobs.append(
            Job(f"orbifold {tag}", "orbifold", 0, ("orbifold", *src), {"dim": _orbifold_dim(kind, spec)})
        )
        jobs.append(
            Job(
                f"derive {tag}", "derive-records", 0, ("derive", *src, "--format", "records"),
                {"order": group.order},
            )
        )
    for i, spec in enumerate(CERTIFY_MUTATED):
        group = builtin_from_string(spec)
        path = files.algebra(f"mutated{i}-{spec}", lambda: inputs.mutated_group_algebra(group, rng))
        jobs.append(Job(f"check mutated{i}-{spec}", "check-fail", 1, ("check", "--algebra", path)))
    return jobs


def _surfaces(files: _Files, rng: random.Random) -> list[Job]:
    jobs = []
    for kind, spec, cases in SURFACES_CERF:
        src = _algebra_source(files, rng, kind, spec)
        for case in cases:
            argv = ("cerf", *src, "--case", case, "--all-labels")
            jobs.append(Job(f"cerf {kind}-{spec} {case}", "cerf-pass", 0, argv))
    for kind, spec in SURFACES_EVAL:
        src = _algebra_source(files, rng, kind, spec)
        group = builtin_from_string(spec)
        for genus, count in SURFACES_EVAL_COUNTS:
            flat = inputs.flat_labellings(group, genus)
            for labels in rng.sample(flat, count):
                tag = f"{kind}-{spec}-{'.'.join(map(str, labels))}"
                # Passed as a file: an inline word longer than a file-name
                # limit makes the CLI's path probe raise OSError.
                word = files.text(f"word-{tag}", closed_surface_word(group, labels).to_text())
                argv = ("eval", *src, "--cobordism", word, "--format", "records")
                data = {"algebra": src, "labels": labels}
                jobs.append(Job(f"eval {tag}", "eval-closed", 0, argv, data))
    for kind, spec, genus in SURFACES_CLOSED:
        src = _algebra_source(files, rng, kind, spec)
        data = {"algebra": src, "genus": genus}
        jobs.append(Job(f"closed {kind}-{spec} genus{genus}", "closed-sum", 0, None, data))
    return jobs


def _fuzz(files: _Files, rng: random.Random) -> list[Job]:
    jobs = []
    for kind, spec, budgets in FUZZ_ALGEBRAS:
        src = _algebra_source(files, rng, kind, spec)
        for budget in budgets:
            for _ in range(FUZZ_REPEATS):
                seed = rng.getrandbits(32)
                argv = (
                    "fuzz", *src, "--seed", str(seed), "--budget", str(budget),
                    "--count", str(FUZZ_WORDS),
                )
                jobs.append(Job(f"fuzz {kind}-{spec} b{budget} s{seed}", "fuzz-pass", 0, argv))
    return jobs


_BUILDERS = {"certify": _certify, "surfaces": _surfaces, "fuzz": _fuzz}


def build_jobs(workload: str, seed: int, root: Path) -> list[Job]:
    """The seeded job list of a workload; writes its input files under root."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](_Files(root), rng)
    rng.shuffle(jobs)
    return jobs


# --- running ---------------------------------------------------------------


def _load_source(src) -> GFrobeniusAlgebra:
    if src[1] == "builtin:group-algebra":
        return group_algebra(builtin_from_string(src[3]))
    return load_algebra(json.loads(Path(src[1]).read_text(encoding="utf-8")))


def closed_job(src, genus: int) -> str:
    """Evaluate every flat labelling of the closed genus-g surface and
    report the count and the sum of the invariants."""
    a = _load_source(src)
    count = hom_count_oracle(a.group, genus)
    total = sum(closed_invariant(a, labels) for labels in inputs.flat_labellings(a.group, genus))
    return f"closed genus={genus} labellings={count} sum={total}\n"


def run_job(job: Job) -> tuple[int, str, str]:
    """Run one job in-process; returns (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if job.argv is None:
            print(closed_job(job.data["algebra"], job.data["genus"]), end="")
            rc = 0
        else:
            rc = cli.main(list(job.argv))
    return rc, out.getvalue(), err.getvalue()


# --- verification ----------------------------------------------------------


def _check_report(stdout: str, want_pass: bool) -> bool:
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("checks: "):
        return False
    entries = lines[1:]
    if want_pass:
        return bool(entries) and all(line.startswith("PASS  ") for line in entries)
    # a failing check must name its first counterexample
    return any(line.startswith("FAIL  ") and "[" in line for line in entries)


def _orbifold(job: Job, stdout: str) -> bool:
    doc = json.loads(stdout)
    orb = load_algebra(doc)
    return orb.group.order == 1 and orb.dims == (job.data["dim"],)


def _derive_records(job: Job, stdout: str) -> bool:
    kinds: dict[str, int] = {}
    for line in stdout.splitlines():
        rec = json.loads(line)
        kinds[rec["record"]] = kinds.get(rec["record"], 0) + 1
    n = job.data["order"]
    return kinds == {"pairing": n, "handle-diagonal": n, "coproduct": n * n}


def _eval_closed(job: Job, stdout: str) -> bool:
    rec = json.loads(stdout)
    if rec["domain"] or rec["codomain"] or len(rec["matrix"]) != 1 or len(rec["matrix"][0]) != 1:
        return False
    a = _load_source(job.data["algebra"])
    return Fraction(rec["matrix"][0][0]) == closed_invariant(a, job.data["labels"])


def _closed_sum(job: Job, stdout: str) -> bool:
    # Every flat labelling of a group algebra (or an isomorphic rescaling)
    # evaluates to 1, so the sum is the number of flat labellings.
    fields = dict(part.split("=") for part in stdout.split()[1:])
    group = _load_source(job.data["algebra"]).group
    return fields["labellings"] == fields["sum"] == str(hom_count_oracle(group, job.data["genus"]))


def _fuzz_pass(job: Job, stdout: str) -> bool:
    argv = job.argv
    seed, budget, count = (argv[argv.index(flag) + 1] for flag in ("--seed", "--budget", "--count"))
    return stdout == (
        f"fuzz: {count} words over budget {budget} passed "
        f"functoriality, rewrite-equality and type checks (seed={seed})\n"
    )


_VERIFIERS = {
    "check-pass": lambda job, out: _check_report(out, True),
    "check-fail": lambda job, out: _check_report(out, False),
    "orbifold": _orbifold,
    "derive-records": _derive_records,
    "cerf-pass": lambda job, out: _check_report(out, True),
    "eval-closed": _eval_closed,
    "closed-sum": _closed_sum,
    "fuzz-pass": _fuzz_pass,
}


def verify(job: Job, rc: int, stdout: str) -> bool:
    """Whether a job's exit status and output are what its generation implies."""
    if rc != job.expect_rc:
        return False
    try:
        return _VERIFIERS[job.check](job, stdout)
    except (EngineError, ValueError, KeyError, TypeError, IndexError):
        return False
