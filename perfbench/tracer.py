"""Spans and counters recorded from outside the package.

`Tracer.install` rebinds public names in the modules that import them and
patches a few class methods with wrappers; `Tracer.uninstall` puts every
original back.  No package source is edited.  Spans (name, start, end,
parent, job) and counters are kept in memory and written out at the end.
A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
import types
from array import array
from pathlib import Path

import gtqft.algebra
import gtqft.cli
import gtqft.orbifold
import gtqft.tqft
from gtqft.algebra import GFrobeniusAlgebra
from gtqft.cobordism import Cobordism, case_label_count
from gtqft.exactlin import Matrix
from gtqft.tqft import Evaluator

# span name -> the (module, name) bindings it wraps.  A function imported
# into several modules is wrapped at each binding that calls reach.
_REBOUND = {
    "groups.build": [
        (gtqft.cli, "builtin_from_string"), (gtqft.cli, "load_group"),
        (gtqft.algebra, "builtin_from_string"), (gtqft.algebra, "load_group"),
    ],
    "algebra.load": [(gtqft.cli, "group_algebra"), (gtqft.cli, "load_algebra")],
    "algebra.save": [(gtqft.cli, "save_algebra")],
    "algebra.check_axioms": [(gtqft.cli, "check_axioms")],
    "algebra.frobenius": [(gtqft.cli, "check_frobenius_diagram")],
    "algebra.cocommutativity": [(gtqft.cli, "check_cocommutativity")],
    "algebra.derive": [(gtqft.cli, "derive"), (gtqft.tqft, "derive")],
    "exactlin.rref": [(gtqft.orbifold, "rref")],
    "orbifold.total": [(gtqft.cli, "orbifold_algebra")],
    "orbifold.projector": [(gtqft.orbifold, "invariant_projector")],
    "cobordism.parse": [(gtqft.cli, "parse")],
    "cobordism.cerf_words": [(gtqft.tqft, "cerf_case_words")],
    "cobordism.random": [(gtqft.cli, "random_cobordism")],
    "cobordism.rewrite": [(gtqft.cli, "rewrite_equivalent")],
    "tqft.functoriality": [(gtqft.cli, "word_functoriality_witness")],
    "tqft.cerf_check": [(gtqft.cli, "cerf_check")],
    "cli.format": [
        (gtqft.cli, "format_report"), (gtqft.cli, "_print_block_map"), (gtqft.cli, "format_matrix"),
    ],
}

_METHODS = {
    "exactlin.matmul": (Matrix, "__matmul__"),
    "exactlin.kron": (Matrix, "kron"),
    "exactlin.inverse": (Matrix, "inverse"),
    "exactlin.det": (Matrix, "det"),
    "tqft.eval": (Evaluator, "__call__"),
    "tqft.layer_matrix": (Evaluator, "layer_matrix"),
}

# Spans whose summed self time is reported as `<name>_s`.
TIMED = (
    "groups.build", "algebra.load", "algebra.save", "algebra.check_axioms",
    "algebra.frobenius", "algebra.cocommutativity", "algebra.derive",
    "exactlin.matmul", "exactlin.kron", "exactlin.inverse", "exactlin.det", "exactlin.rref",
    "orbifold.total", "orbifold.projector", "cobordism.parse", "cobordism.cerf_words",
    "cobordism.random", "cobordism.rewrite", "tqft.eval", "tqft.layer_matrix",
    "tqft.functoriality", "tqft.cerf_check", "tqft.closed_invariant", "tqft.hom_count",
    "cli.self", "cli.format",
)
# Spans whose number of calls is reported as `<name>_calls`.
CALLED = (
    "groups.build", "algebra.derive", "exactlin.matmul", "exactlin.kron",
    "cobordism.cerf_words", "cobordism.random", "cobordism.rewrite", "tqft.eval",
    "tqft.layer_matrix", "tqft.closed_invariant",
)
COUNTERS = (
    "algebra.apply_product_calls", "algebra.apply_product_mults", "exactlin.matmul_mults",
    "exactlin.kron_entries", "exactlin.max_matrix_entries", "orbifold.invariant_dim",
    "cobordism.words_built", "tqft.evaluators_built", "tqft.piece_hits", "tqft.piece_misses",
    "tqft.labellings", "cli.stdout_bytes",
)
_SPAN_ALIASES = {"cli.self": "cli.main"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{name}_s": "s" for name in TIMED}
    units.update({f"{name}_calls": "count" for name in CALLED})
    units.update(dict.fromkeys(COUNTERS, "count"))
    units.update({"tqft.piece_hit_ratio": "ratio", "trace.overhead_s": "s"})
    return units


class _JsonProxy(types.ModuleType):
    """Stands in for `json` inside gtqft.cli so that `json.dumps` of
    records and documents is timed as formatting."""

    def __init__(self, wrapped_dumps):
        super().__init__("json")
        self.__dict__.update({k: v for k, v in json.__dict__.items() if not k.startswith("__")})
        self.dumps = wrapped_dumps


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.current_job = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        sid = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a span per call; `after(args, kwargs, result)`
        runs outside the span to update counters.  The wrapper inlines
        `open` and `close`: it runs about a million times per traced pass."""
        nid = self._name_id(name)
        stack, names, parents, jobs, starts, ends = (
            self._stack, self.name, self.parent, self.job, self.start, self.end,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.current_job)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, extra_bindings=()) -> None:
        """Wrap the package's layers; `extra_bindings` lists (span name,
        module, attribute) triples for the caller's own imports."""
        c = self.counters

        def count_shape(args, kwargs, out):
            entries = out.rows * out.cols
            if entries > c["exactlin.max_matrix_entries"]:
                c["exactlin.max_matrix_entries"] = entries

        def after_matmul(args, kwargs, out):
            c["exactlin.matmul_mults"] += args[0].rows * args[0].cols * args[1].cols
            count_shape(args, kwargs, out)

        def after_kron(args, kwargs, out):
            c["exactlin.kron_entries"] += out.rows * out.cols
            count_shape(args, kwargs, out)

        def after_orbifold(args, kwargs, out):
            c["orbifold.invariant_dim"] += out.dimension

        def after_cerf(args, kwargs, out):
            a, case = args[0], args[1]
            labels = a.group.order ** case_label_count(case) if kwargs.get("all_labels") else 1
            c["tqft.labellings"] += labels

        after = {
            "exactlin.matmul": after_matmul,
            "exactlin.kron": after_kron,
            "orbifold.total": after_orbifold,
            "tqft.cerf_check": after_cerf,
        }
        bindings = [(span, mod, attr) for span, pairs in _REBOUND.items() for mod, attr in pairs]
        for span, mod, attr in [*bindings, *extra_bindings]:
            self._set(mod, attr, self.wrap(span, getattr(mod, attr), after.get(span)))
        for span, (cls, attr) in _METHODS.items():
            self._set(cls, attr, self.wrap(span, cls.__dict__[attr], after.get(span)))
        self._set(gtqft.cli, "json", _JsonProxy(self.wrap("cli.format", json.dumps)))

        apply_product = GFrobeniusAlgebra.__dict__["apply_product"]

        def counted_apply_product(alg, g, h, x, y):
            c["algebra.apply_product_calls"] += 1
            c["algebra.apply_product_mults"] += len(x) * len(y) * alg.dims[alg.group.mul(g, h)]
            return apply_product(alg, g, h, x, y)

        self._set(GFrobeniusAlgebra, "apply_product", counted_apply_product)

        piece_matrix = Evaluator.__dict__["piece_matrix"]

        def counted_piece_matrix(ev, piece):
            c["tqft.piece_hits" if piece in ev._pieces else "tqft.piece_misses"] += 1
            return piece_matrix(ev, piece)

        self._set(Evaluator, "piece_matrix", counted_piece_matrix)

        for cls, key in ((Evaluator, "tqft.evaluators_built"), (Cobordism, "cobordism.words_built")):
            init = cls.__dict__["__init__"]

            def counted_init(obj, *args, _init=init, _key=key, **kwargs):
                c[_key] += 1
                _init(obj, *args, **kwargs)

            self._set(cls, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.name)
        for sid in range(len(self.name)):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        totals = dict.fromkeys(self.names, 0.0)
        for sid in range(len(self.name)):
            totals[self.names[self.name[sid]]] += self.end[sid] - self.start[sid] - child[sid]
        return totals

    def call_counts(self) -> dict[str, int]:
        counts = [0] * len(self.names)
        for nid in self.name:
            counts[nid] += 1
        return dict(zip(self.names, counts))

    def metrics(self, overhead_s: float) -> dict[str, float]:
        selfs, calls = self.self_times(), self.call_counts()
        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}_s"] = selfs.get(_SPAN_ALIASES.get(name, name), 0.0)
        for name in CALLED:
            out[f"{name}_calls"] = calls.get(name, 0)
        out.update(self.counters)
        lookups = self.counters["tqft.piece_hits"] + self.counters["tqft.piece_misses"]
        out["tqft.piece_hit_ratio"] = self.counters["tqft.piece_hits"] / lookups if lookups else 0.0
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path: Path, jobs: list[str]) -> None:
        """Spans as gzipped JSON lines: a header with the name and job
        tables, then one [name, start, end, parent, job] array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "jobs": jobs, "counters": self.counters}) + "\n")
            for sid in range(len(self.name)):
                fh.write(
                    f"[{self.name[sid]},{self.start[sid]:.9f},{self.end[sid]:.9f},"
                    f"{self.parent[sid]},{self.job[sid]}]\n"
                )
