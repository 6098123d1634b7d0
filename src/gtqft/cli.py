"""Command-line driver.

Commands: check, derive, orbifold, eval, cerf, fuzz.  Exit status is 0
when every executed check passed, 1 when a check failed, and 2 when an
error stopped the run; errors print one machine-readable line
``error: category=<parse|type|degenerate-pairing|check-failure|budget|output|internal> ...``
to stderr.  A usage error is ``parse``; ``output`` is a stdout whose
reader has gone away.  ``internal`` is any exception that is not a
package error, a fault of the program rather than of the input, printed
as ``error: category=internal <Type>: <message>``.  Output is
deterministic for fixed inputs and seed.  `main(argv)` is the one way
into a run: the argument parser owns the options, their defaults and which
flags go together (`cerf` takes exactly one of `--labels` and
`--all-labels`), and each command reads the parsed namespace.  The parser
is built once per process, on the first `main` call, and reused by every
later one.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from pathlib import Path

from .algebra import (
    GFrobeniusAlgebra,
    check_axioms,
    check_cocommutativity,
    check_frobenius_diagram,
    derive,
    group_algebra,
    load_algebra,
    save_algebra,
)
from .cobordism import CERF_CASES, Cobordism, Piece, parse, random_cobordism, rewrite_equivalent
from .cobordism import tensor as tensor_words
from .errors import EngineError, SchemaError, SignatureMismatch
from .exactlin import Matrix, format_matrix, format_scalar
from .groups import FiniteGroup, builtin_from_string, load_group
from .orbifold import orbifold_algebra
from .report import CheckReport, failing
from .tqft import (
    Evaluator,
    RunningMap,
    cerf_check,
    evaluate,
    split_matrix,
    word_functoriality_witness,
)


def format_report(report: CheckReport, mode: str = "human") -> str:
    """Render a report; "human" is an aligned table, "records" is one JSON
    object per line with a summary record first."""
    passed = sum(1 for e in report.entries if e.passed)
    failed = len(report.entries) - passed
    if mode == "records":
        lines = [json.dumps({"record": "summary", "passed": passed, "failed": failed})]
        for e in report.entries:
            rec: dict = {"record": "check", "name": e.name, "passed": e.passed}
            if e.witness is not None:
                rec["witness"] = {
                    "context": dict(e.witness.context),
                    "left": e.witness.left,
                    "right": e.witness.right,
                }
            lines.append(json.dumps(rec))
        return "\n".join(lines)
    lines = [f"checks: {passed} passed, {failed} failed"]
    for e in report.entries:
        if e.passed:
            lines.append(f"PASS  {e.name}")
        else:
            ctx = ""
            if e.witness is not None:
                pairs = " ".join(f"{k}={v}" for k, v in e.witness.context)
                ctx = f"  [{pairs}]  left={e.witness.left}  right={e.witness.right}"
            lines.append(f"FAIL  {e.name}{ctx}")
    return "\n".join(lines)


def _source_file(source: str) -> Path | None:
    """The file named by a source argument, or None when it names no file
    and is inline text or a builtin name.  An empty source or a directory
    is a parse error."""
    if not source:
        raise SchemaError("empty source: expected a file name or an inline value")
    path = Path(source)
    try:
        is_dir, exists = path.is_dir(), path.exists()
    except OSError:  # e.g. inline text longer than a file name may be
        return None
    if is_dir:
        raise SchemaError(f"{source} is a directory, not a file")
    return path if exists else None


def _read_json(path: Path, source: str):
    """The parsed JSON document in a group or algebra file; text that is
    not UTF-8 JSON is a parse error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise SchemaError(f"invalid JSON in {source}: {exc}") from None


def _load_group_source(source: str) -> FiniteGroup:
    path = _source_file(source)
    if path is not None:
        return load_group(_read_json(path, source))
    return builtin_from_string(source)


def _load_algebra_source(args: argparse.Namespace) -> GFrobeniusAlgebra:
    source = args.algebra
    if source == "builtin:group-algebra":
        if args.group is None:
            raise SchemaError("builtin:group-algebra needs --group")
        return group_algebra(_load_group_source(args.group))
    path = _source_file(source)
    if path is None:
        raise SchemaError(f"algebra file not found: {source}")
    return load_algebra(_read_json(path, source))


def _read_cobordism_text(source: str) -> str:
    """The word text in a file, or the source itself when it names none;
    a file that is not UTF-8 is a parse error."""
    path = _source_file(source)
    if path is None:
        return source
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{source} is not UTF-8 text: {exc}") from None


def _scalars(rows) -> list[list[str]]:
    return [[format_scalar(x) for x in row] for row in rows]


def _print_block_map(word: Cobordism, value: Matrix, mode: str) -> str:
    """The value of `word`, with its domain and codomain signatures."""
    name = word.group.name
    if mode == "records":
        return json.dumps(
            {
                "record": "map",
                "domain": [name(g) for g in word.dom],
                "codomain": [name(g) for g in word.cod],
                "matrix": _scalars(value.data),
            }
        )
    lines = [
        "domain:   [" + ", ".join(map(name, word.dom)) + "]",
        "codomain: [" + ", ".join(map(name, word.cod)) + "]",
        f"matrix ({value.rows} x {value.cols}):",
    ]
    lines.extend(format_matrix(value))
    return "\n".join(lines)


def _cmd_check(args: argparse.Namespace) -> int:
    a = _load_algebra_source(args)
    report = check_axioms(a)
    try:
        d = derive(a)
    except EngineError as exc:
        report = report.merge(
            CheckReport((failing("derived-structure", (("error", str(exc)),), "", ""),))
        )
    else:
        report = report.merge(check_frobenius_diagram(a, d))
        report = report.merge(check_cocommutativity(a, d))
    print(format_report(report, args.fmt))
    return 0 if report.passed else 1


def _cmd_derive(args: argparse.Namespace) -> int:
    a = _load_algebra_source(args)
    d = derive(a)
    name, elements = a.group.name, a.group.elements()
    euler = "(rows: grade, cols: inverse grade):"
    split = "(matrix of the splitting map, rows flatten the two output legs):"
    # (record, grades, block, human header) of each derived table
    entries = [("pairing", (g,), d.pairings[g], f"pairing[{name(g)}]:") for g in elements]
    entries += [
        ("handle-diagonal", (g,), d.euler[g], f"euler-element[{name(g)}] {euler}")
        for g in elements
    ]
    entries += [
        ("coproduct", (g, h), d.coproducts[(g, h)], f"coproduct[{name(g)},{name(h)}] {split}")
        for g in elements
        for h in elements
    ]
    out = []
    for record, grades, block, header in entries:
        coproduct = record == "coproduct"
        if args.fmt == "records":
            rec = {"record": record, **dict(zip("gh", map(name, grades)))}
            if coproduct:
                rec["tensor"] = [_scalars(plane) for plane in block.data]
            else:
                rec["matrix"] = _scalars(block.data)
            out.append(json.dumps(rec))
        else:
            out.append(header)
            out.extend(format_matrix(split_matrix(block) if coproduct else block))
    print("\n".join(out))
    return 0


def _cmd_orbifold(args: argparse.Namespace) -> int:
    a = _load_algebra_source(args)
    orb = orbifold_algebra(a)
    doc = save_algebra(orb.trivial)
    doc["group"] = "cyclic:1"
    print(json.dumps(doc, indent=2, sort_keys=True))
    if not orb.certification.passed:
        print(format_report(orb.certification, args.fmt), file=sys.stderr)
        return 1
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    a = _load_algebra_source(args)
    text = _read_cobordism_text(args.cobordism)
    word = parse(text, a.group)
    print(_print_block_map(word, evaluate(a, word), args.fmt))
    return 0


def _cmd_cerf(args: argparse.Namespace) -> int:
    a = _load_algebra_source(args)
    if args.all_labels:
        report = cerf_check(a, args.case, all_labels=True)
    else:
        names = [s.strip() for s in args.labels.split(",")]
        if "" in names:
            raise SchemaError(f"--labels {args.labels!r} has an empty element name")
        labels = tuple(a.group.index(name) for name in names)
        report = cerf_check(a, args.case, labels=labels)
    print(format_report(report, args.fmt))
    return 0 if report.passed else 1


def _layer_drops(word: Cobordism):
    """The layer lists of `word` with one layer left out, first layer first."""
    layers = word.layers
    if len(layers) > 1:
        for idx in range(len(layers)):
            yield layers[:idx] + layers[idx + 1 :]


def _label_pushes(word: Cobordism):
    """The layer lists of `word` with one non-identity label set to the
    identity, in layer, piece and slot order."""
    e, layers = word.group.identity, word.layers
    for li, layer in enumerate(layers):
        for pi, piece in enumerate(layer):
            for slot, label in enumerate(piece.labels):
                if label != e:
                    labels = piece.labels[:slot] + (e,) + piece.labels[slot + 1 :]
                    new_layer = layer[:pi] + (Piece(piece.kind, labels),) + layer[pi + 1 :]
                    yield layers[:li] + (new_layer,) + layers[li + 1 :]


def _well_typed(group: FiniteGroup, layer_lists):
    """The words of the layer lists whose adjacent signatures match."""
    for layers in layer_lists:
        try:
            yield Cobordism(group, layers)
        except SignatureMismatch:
            pass


def minimize_word(word: Cobordism, predicate) -> Cobordism:
    """Greedy shrink of a failing word: take the first shrink the predicate
    still holds for until none is left, dropping layers to a fixpoint
    before pushing any label toward the identity element."""
    current = word
    for shrinks in (_layer_drops, _label_pushes):
        while True:
            candidates = _well_typed(current.group, shrinks(current))
            accepted = next((c for c in candidates if predicate(c)), None)
            if accepted is None:
                break
            current = accepted
    return current


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.budget < 1:
        raise SchemaError(f"--budget must be at least 1, got {args.budget}")
    if args.count < 0:
        raise SchemaError(f"--count must be non-negative, got {args.count}")
    a = _load_algebra_source(args)
    ev = Evaluator(a)
    rng = random.Random(args.seed)
    previous: Cobordism | None = None
    previous_value: RunningMap | None = None
    for index in range(args.count):
        word = random_cobordism(a.group, rng.getrandbits(32), args.budget)
        value, witness = word_functoriality_witness(ev, word)
        if witness is not None:
            shrunk = minimize_word(
                word, lambda w: word_functoriality_witness(ev, w)[1] is not None
            )
            print(f"fuzz: functoriality failed at word {index}")
            print(f"word: {word.to_text()}")
            print(f"minimized: {shrunk.to_text()}")
            print(f"witness: {dict(witness.context)}")
            return 1
        rewritten = rewrite_equivalent(word, rng)
        # the rewrite shares the word's layers before the splice: start there
        if rewritten is not None and ev.running_map(rewritten, value) != value:
            shrunk = minimize_word(rewritten, lambda w: ev.running_map(w) != value)
            print(f"fuzz: rewrite equality failed at word {index}")
            print(f"word: {word.to_text()}")
            print(f"rewritten: {shrunk.to_text()}")
            return 1
        if previous is not None and index % 10 == 0:
            if ev(tensor_words(previous, word)) != previous_value.matrix().kron(value.matrix()):
                print(f"fuzz: tensor functoriality failed at word {index}")
                print(f"left: {previous.to_text()}")
                print(f"right: {word.to_text()}")
                return 1
        previous, previous_value = word, value
    print(
        f"fuzz: {args.count} words over budget {args.budget} passed "
        f"functoriality, rewrite-equality and type checks (seed={args.seed})"
    )
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "derive": _cmd_derive,
    "orbifold": _cmd_orbifold,
    "eval": _cmd_eval,
    "cerf": _cmd_cerf,
    "fuzz": _cmd_fuzz,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise `SchemaError`; the subparsers share this class."""

    def error(self, message):
        raise SchemaError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call; callers must not mutate it.  Help text is formatted when it
    is printed, so `--help` still follows the terminal width."""
    parser = _Parser(
        prog="gtqft",
        description="Exact checker and evaluator for graded Frobenius algebras "
        "and the surface field theories they generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--group", help="group file or builtin spec like cyclic:4")
        p.add_argument(
            "--algebra",
            required=True,
            help='algebra file or "builtin:group-algebra" (with --group)',
        )

    def formatted(p):
        common(p)
        p.add_argument(
            "--format",
            dest="fmt",
            choices=["human", "records"],
            default="human",
            help="human-readable table or line-delimited JSON records",
        )
        return p

    formatted(sub.add_parser("check", help="run the law checks on an algebra"))
    formatted(sub.add_parser("derive", help="print pairings, coproducts and handle elements"))
    formatted(sub.add_parser("orbifold", help="emit the invariant subalgebra as an algebra file"))

    p_eval = formatted(sub.add_parser("eval", help="evaluate a surface word"))
    p_eval.add_argument("--cobordism", required=True, help="word text or a file containing it")

    p_cerf = formatted(sub.add_parser("cerf", help="compare alternative decompositions"))
    p_cerf.add_argument("--case", required=True, choices=CERF_CASES)
    labelled = p_cerf.add_mutually_exclusive_group(required=True)
    labelled.add_argument("--labels", help="comma-separated element names")
    labelled.add_argument("--all-labels", action="store_true", dest="all_labels")

    p_fuzz = sub.add_parser("fuzz", help="random words with functoriality assertions")
    common(p_fuzz)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--budget", type=int, default=8, help="maximum pieces per word")
    p_fuzz.add_argument("--count", type=int, default=1000, help="number of words")

    return parser


def main(argv=None) -> int:
    """Parse and execute one command line; returns the process exit status.
    A usage error is the parser's `SchemaError`, reported as any other."""
    try:
        args = build_parser().parse_args(argv)
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError as exc:
        # nobody reads stdout any more: send it, and the flush at exit, nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: category=output cannot write to stdout: {exc}", file=sys.stderr)
    except EngineError as exc:
        print(f"error: category={exc.category} {exc}", file=sys.stderr)
    except Exception as exc:  # a fault of the program, not of the input
        print(f"error: category=internal {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
