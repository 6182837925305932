"""Spans around the calls into gyoja's public functions, recorded from outside.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper at
every name it is bound under: the defining module, every gyoja module that
imported it, and for methods every class attribute holding it (so both
``__mul__`` and its ``__rmul__`` alias).  A wrapper records one span per
call: name, operation id, parent span, start and end, plus the work counts
read off the call's arguments and result.  Spans stay in memory until
``Tracer.dump`` writes them out once, as JSON lines.

``summarize`` and ``layer_metrics`` turn a span file into the per-layer
metrics; they do not import gyoja, so the orchestrator can call them.  A
target that a later version of the package no longer has is skipped, and its
time then shows up as self time of its caller.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _ball_counts(args, kwargs, out, before):
    system = args[0] if args else kwargs["system"]
    n, gens = system.rank, system.num_gens
    frontier = out.counts[:-1]  # the last level is never expanded
    largest = max(frontier, default=0) * gens
    return {
        "elements": out.total,
        "candidates": sum(frontier) * gens,
        "candidate_bytes_peak": largest * (n * n + n) * 8 * 2,
    }


def _nbytes(args, kwargs, out, before):
    return {"out_bytes": sum(a.nbytes for a in out)}


def _export_counts(args, kwargs, out, before):
    return {"lines": out, "bytes": _export_before(args, kwargs) - before}


def _terms(args, kwargs, out, before):
    return {"terms": len(out.coeffs)}


def _verdicts(args, kwargs, out, before):
    return {"verdicts": len(out)}


def _rep_elements(args, kwargs, out, before):
    ball = args[0] if args else kwargs["ball"]
    rep = args[1] if len(args) > 1 else kwargs["rep"]
    if type(rep).__name__ != "MatrixRep":
        return None
    bound = args[3] if len(args) > 3 else kwargs.get("bound")
    bound = ball.radius if bound is None else bound
    return {"rep_elements": sum(ball.counts[: bound + 1])}


def _sink_bytes(fp) -> int:
    return getattr(fp, "bytes", 0)


def _export_before(args, kwargs):
    return _sink_bytes(args[1] if len(args) > 1 else kwargs["fp"])


def _stdout_before(args, kwargs):
    return _sink_bytes(sys.stdout)


def _output_bytes(args, kwargs, out, before):
    return {"output_bytes": _sink_bytes(sys.stdout) - before}


# (module, attribute or Class.method, span name, counts hook, before hook)
TARGETS = [
    ("gyoja.cartan", "build_affine_system", "cartan.build_affine_system", None, None),
    ("gyoja.weyl", "enumerate_ball", "weyl.enumerate_ball", _ball_counts, None),
    ("gyoja._kernels", "expand_frontier", "kernels.expand_frontier", _nbytes, None),
    ("gyoja.weyl", "Ball.multilength_counts", "weyl.multilength_counts", None, None),
    ("gyoja.weyl", "Ball.export_jsonl", "weyl.export_jsonl", _export_counts, _export_before),
    ("gyoja.series", "TruncatedSeries.__mul__", "series.mul", None, None),
    ("gyoja.series", "TruncatedSeries.invert", "series.invert", None, None),
    ("gyoja.series", "TruncatedSeries.first_difference", "series.first_difference", None, None),
    ("gyoja.series", "TruncatedSeries.__str__", "series.render", None, None),
    ("gyoja.hecke", "counting_series", "hecke.counting_series", None, None),
    ("gyoja.hecke", "gyoja_series", "hecke.gyoja_series", _rep_elements, None),
    ("gyoja.hecke", "eval_rep_on_word", "hecke.eval_rep_on_word", None, None),
    ("gyoja.hecke", "validate_rep", "hecke.validate_rep", None, None),
    ("gyoja.closed_forms", "ClosedForm.expand", "closed_forms.expand", _terms, None),
    ("gyoja.closed_forms", "calibrate_indexing", "closed_forms.calibrate_indexing", None, None),
    ("gyoja.closed_forms", "ClosedForm.evaluate_witnessed", "closed_forms.evaluate_witnessed", None, None),
    ("gyoja.distinction", "classify", "distinction.classify", _verdicts, None),
    ("gyoja.cli", "main", "cli.main", _output_bytes, _stdout_before),
]


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, op, parent, start, end, counts]
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.t0 = perf_counter()

    def _wrap(self, fn, name, counts_hook, before_hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            before = before_hook(args, kwargs) if before_hook else None
            record = [name, tracer.op, tracer.stack[-1] if tracer.stack else -1, 0.0, 0.0, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                tracer.stack.pop()
            if counts_hook:
                record[5] = counts_hook(args, kwargs, out, before)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target that this version of the package has."""
        for module_name, attr, name, counts_hook, before_hook in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = owner.__dict__.get(method) if owner is not None else None
                if original is None:
                    continue
                wrapper = self._wrap(original, name, counts_hook, before_hook)
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        setattr(owner, key, wrapper)
            else:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, name, counts_hook, before_hook)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "gyoja" or mod_name.startswith("gyoja.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for i, (name, op, parent, start, end, counts) in enumerate(self.spans):
                doc = {
                    "id": i,
                    "parent": parent,
                    "op": op,
                    "name": name,
                    "start": start - self.t0,
                    "end": end - self.t0,
                }
                if counts:
                    doc["counts"] = counts
                fp.write(json.dumps(doc, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp]


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``<span>.s`` is busy time (a span nested in one of the same name is not
    counted twice), ``<span>.self_s`` is busy time minus the time covered by
    child spans, ``<span>.calls`` the number of spans, and the counts
    recorded on the spans are summed (peaks take the maximum).
    """
    child_time: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp["parent"] >= 0:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
    by_id = {sp["id"]: sp for sp in spans}

    def nested_in_same_name(sp: dict) -> bool:
        parent = sp["parent"]
        while parent >= 0:
            if by_id[parent]["name"] == sp["name"]:
                return True
            parent = by_id[parent]["parent"]
        return False

    out: dict[str, float] = defaultdict(int)
    for sp in spans:
        name = sp["name"]
        duration = sp["end"] - sp["start"]
        self_time = duration - child_time[sp["id"]]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_time
        out[f"{name.split('.')[0]}.self_s"] += self_time
        if not nested_in_same_name(sp):
            out[f"{name}.s"] += duration
        for key, value in (sp.get("counts") or {}).items():
            metric = f"{name}.{key}"
            out[metric] = max(out[metric], value) if key.endswith("_peak") else out[metric] + value
    return dict(out)


# Per-layer metric names that differ from the "<span name>.<field>" they report.
ALIASES = {
    "weyl.elements": "weyl.enumerate_ball.elements",
    "weyl.candidates": "weyl.enumerate_ball.candidates",
    "weyl.candidate_bytes_peak": "weyl.enumerate_ball.candidate_bytes_peak",
    "cli.output_bytes": "cli.main.output_bytes",
    "distinction.verdicts": "distinction.classify.verdicts",
    "hecke.rep_elements": "hecke.gyoja_series.rep_elements",
}


def layer_metrics(spans: list[dict], names: list[str]) -> dict[str, float]:
    """The named per-layer metrics of one traced pass; 0 for a layer never reached."""
    raw = summarize(spans)
    raw["trace.spans"] = len(spans)
    candidates = raw.get("weyl.enumerate_ball.candidates", 0)
    raw["weyl.kept_ratio"] = raw.get("weyl.enumerate_ball.elements", 0) / candidates if candidates else 0.0
    return {name: raw.get(ALIASES.get(name, name), 0) for name in names}
