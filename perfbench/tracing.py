"""Traced run: spans around every public function of the program's layers.

Run as a script, this is one traced command process::

    python3 perfbench/tracing.py SPANS.json <cli arguments...>

It imports ``influence_select``, wraps the public functions of each layer
module, rebinds every wrapper wherever a module imported the function by name
(``curvature.forward``, ``trainer.backward``, ``influence.kron_ihvp``, ...),
calls ``cli.main`` in-process, keeps the spans in memory and writes them to
SPANS.json when the command ends. The program's own files are not touched.

Imported, it turns span files into the per-layer metrics (``command_metrics``).
A span is ``[name, start, end, parent, attr, raised]``; ``name`` is
``<layer>.<function>`` and ``attr`` is a count, a kind or a dict of counts
read from the call.

Self time follows layers: a span's self time is its duration minus the time
of descendant spans of *other* layers, so ``model.forward_s`` includes the
model's own helpers (RoPE tables) but ``bandit.self_s`` excludes the scorer
callback and the model work inside it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time

LAYERS = ("corpus", "clustering", "model", "curvature", "influence", "bandit",
          "trainer", "tensorio", "cli")
KINDS = ("qkv-joint", "attn-out", "mlp-1", "mlp-2")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# attr recorded per function: read from the call's arguments or result
_ATTRS = {
    "model.forward": lambda a, k, r: len(_arg(a, k, 1, "tokens")),
    "clustering.kmeans": lambda a, k, r: int(r.n_iters),
    "corpus.load_tokens": lambda a, k, r: len(r),
    "curvature.accumulate": lambda a, k, r: _arg(a, k, 0, "factor").kind,
    "curvature.inverse_of_factor": lambda a, k, r: _arg(a, k, 0, "factor").kind,
    "curvature.factor_inverse": lambda a, k, r: r.kind,
    "curvature.kron_ihvp": lambda a, k, r: _arg(a, k, 0, "inv").kind,
    "trainer.train": lambda a, k, r: _arg(a, k, 2, "cfg").steps,
    "tensorio.write_tensors": lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")),
    "bandit.run": lambda a, k, r: {
        "iterations": len(r.iterations),
        "pulls": sum(len(it.pulls) for it in r.iterations),
        "skipped_pulls": sum(it.skipped_pulls for it in r.iterations),
        "selected": len(r.selected),
    },
    "bandit.CachedScorer.__call__": lambda a, k, r: len(r),
    "cli.scorer": lambda a, k, r: len(r),
}


class Tracer:
    """Collects spans in memory; one parent stack per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name, fn):
        describe = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, False]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if describe is not None:
                span[4] = describe(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions and rebind them in every module."""
    import influence_select
    from influence_select import bandit

    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"influence_select.{layer}"]
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name[0] != "_":
                wrappers[fn] = tracer.wrap(f"{layer}.{name}", fn)

    run = bandit.run
    signature = inspect.signature(run)

    @functools.wraps(run)
    def run_with_traced_scorer(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        scorer = bound.arguments["scorer"]
        if not isinstance(scorer, bandit.CachedScorer):
            bound.arguments["scorer"] = tracer.wrap("cli.scorer", scorer)
        return run(*bound.args, **bound.kwargs)

    wrappers[run] = tracer.wrap("bandit.run", run_with_traced_scorer)
    cached_call = bandit.CachedScorer.__call__
    bandit.CachedScorer.__call__ = tracer.wrap("bandit.CachedScorer.__call__", cached_call)

    modules = [influence_select] + [
        m for n, m in list(sys.modules.items()) if n.startswith("influence_select.")
    ]
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, name, wrappers[value])


# ------------------------------------------------------------------ metrics

PER_LAYER = [
    ("corpus.load_s", "s"), ("corpus.records", "count"),
    ("clustering.kmeans_s", "s"), ("clustering.iters", "count"),
    ("model.forward_calls", "count"), ("model.backward_calls", "count"),
    ("model.forward_s", "s"), ("model.backward_s", "s"), ("model.tokens", "count"),
    ("model.fwd_bwd_us_per_token", "us"), ("model.grad_of_set_s", "s"),
    ("curvature.collect_s", "s"), ("curvature.kron_ihvp_calls", "count"),
    *[(f"curvature.{m}_s.{k}", "s") for m in ("accumulate", "inverse", "kron_ihvp")
      for k in KINDS],
    ("influence.reference_ihvp_s", "s"), ("influence.score_calls", "count"),
    ("influence.score_s", "s"), ("influence.score_self_s", "s"),
    ("influence.sketch_calls", "count"), ("influence.sketch_s", "s"),
    ("influence.score_batch_s", "s"),
    ("bandit.run_s", "s"), ("bandit.self_s", "s"), ("bandit.iterations", "count"),
    ("bandit.pulls", "count"), ("bandit.skipped_pulls", "count"),
    ("bandit.requested", "count"), ("bandit.scored", "count"),
    ("bandit.cache_hit_frac", "frac"), ("bandit.selected_per_scored", "frac"),
    ("trainer.train_s", "s"), ("trainer.self_s", "s"), ("trainer.steps", "count"),
    ("trainer.adam_calls", "count"), ("trainer.adam_s", "s"), ("trainer.eval_s", "s"),
    ("tensorio.write_s", "s"), ("tensorio.bytes_written", "bytes"),
    ("cli.self_s", "s"),
    *[(f"{layer}.errors", "count") for layer in LAYERS],
    ("trace.overhead_frac", "frac"),
]

# counts that must repeat exactly for identical inputs
EXACT_COUNTS = ("model.forward_calls", "clustering.iters", "bandit.scored",
                "bandit.iterations", "influence.sketch_calls")

SCORERS = ("influence.score_instance", "influence.score_instance_sketched")
BACKWARDS = ("model.backward", "model.backward_from_dlogits")
INVERSES = ("curvature.inverse_of_factor", "curvature.factor_inverse")


class SpanTable:
    """Derived views over one command's spans."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.layer = [s[0].split(".", 1)[0] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        foreign = [0.0] * n
        for i in range(n - 1, -1, -1):  # children always follow their parent
            p = spans[i][3]
            if p >= 0:
                foreign[p] += self.dur[i] if self.layer[i] != self.layer[p] else foreign[i]
        self.self_time = [d - f for d, f in zip(self.dur, foreign)]

    def outermost(self, names):
        """Indices of spans named in ``names`` with no ancestor also named."""
        names = set(names)
        out = []
        for i, s in enumerate(self.spans):
            if s[0] not in names:
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def count(self, *names):
        return len(self.outermost(names))

    def self_s(self, *names, kind=None):
        return sum(self.self_time[i] for i in self.outermost(names)
                   if kind is None or self.spans[i][4] == kind)

    def total_s(self, *names):
        return sum(self.dur[i] for i in self.outermost(names))

    def attr_sum(self, name, key=None):
        vals = [s[4] for s in self.spans if s[0] == name and s[4] is not None]
        return sum(v if key is None else v[key] for v in vals)

    def layer_self(self, layer):
        """Self time of the layer's outermost spans, which covers nested ones."""
        return sum(self.self_time[i] for i, s in enumerate(self.spans)
                   if self.layer[i] == layer and (s[3] < 0 or self.layer[s[3]] != layer))

    def errors(self, layer):
        return sum(1 for s, lay in zip(self.spans, self.layer) if lay == layer and s[5])

    def foreign_to_cli(self):
        """Time in spans of other layers than cli that no such span encloses."""
        total = 0.0
        enclosed = [False] * len(self.spans)
        for i, s in enumerate(self.spans):  # parents come first
            p = s[3]
            enclosed[i] = p >= 0 and (enclosed[p] or self.layer[p] != "cli")
            if self.layer[i] != "cli" and not enclosed[i]:
                total += self.dur[i]
        return total


def command_metrics(spans, wall: float) -> dict:
    """Per-layer figures for one traced command whose process took ``wall`` s."""
    t = SpanTable(spans)
    m = {
        "corpus.load_s": t.layer_self("corpus"),
        "corpus.records": t.attr_sum("corpus.load_tokens"),
        "clustering.kmeans_s": t.self_s("clustering.kmeans"),
        "clustering.iters": t.attr_sum("clustering.kmeans"),
        "model.forward_calls": t.count("model.forward"),
        "model.backward_calls": t.count(*BACKWARDS),
        "model.forward_s": t.self_s("model.forward"),
        "model.backward_s": t.self_s(*BACKWARDS),
        "model.tokens": t.attr_sum("model.forward"),
        "model.grad_of_set_s": t.self_s("model.grad_of_set"),
        "curvature.collect_s": t.self_s("curvature.collect_factors"),
        "curvature.kron_ihvp_calls": t.count("curvature.kron_ihvp"),
        "influence.reference_ihvp_s": t.self_s("influence.reference_ihvp"),
        "influence.score_calls": t.count(*SCORERS),
        "influence.score_s": t.total_s(*SCORERS),
        "influence.score_self_s": t.self_s(*SCORERS),
        "influence.sketch_calls": t.count("influence.sketch_vector"),
        "influence.sketch_s": t.self_s("influence.sketch_vector"),
        "influence.score_batch_s": t.self_s("influence.score_batch"),
        "bandit.run_s": t.total_s("bandit.run"),
        "bandit.self_s": t.layer_self("bandit"),
        "bandit.iterations": t.attr_sum("bandit.run", "iterations"),
        "bandit.pulls": t.attr_sum("bandit.run", "pulls"),
        "bandit.skipped_pulls": t.attr_sum("bandit.run", "skipped_pulls"),
        "bandit.selected": t.attr_sum("bandit.run", "selected"),
        "bandit.requested": t.attr_sum("bandit.CachedScorer.__call__"),
        "bandit.scored": t.attr_sum("cli.scorer"),
        "trainer.train_s": t.total_s("trainer.train"),
        "trainer.self_s": t.layer_self("trainer"),
        "trainer.steps": t.attr_sum("trainer.train"),
        "trainer.adam_calls": t.count("trainer.adam_step"),
        "trainer.adam_s": t.self_s("trainer.adam_step"),
        "trainer.eval_s": t.total_s("trainer.eval_loss"),
        "tensorio.write_s": t.self_s("tensorio.write_tensors"),
        "tensorio.bytes_written": t.attr_sum("tensorio.write_tensors"),
        "cli.self_s": wall - t.foreign_to_cli(),
    }
    for stage, name in (("accumulate", ("curvature.accumulate",)), ("inverse", INVERSES),
                        ("kron_ihvp", ("curvature.kron_ihvp",))):
        for k in KINDS:
            m[f"curvature.{stage}_s.{k}"] = t.self_s(*name, kind=k)
    for layer in LAYERS:
        m[f"{layer}.errors"] = t.errors(layer)
    return m


def iteration_metrics(per_command: list[dict]) -> dict:
    """Sum one iteration's commands and derive the ratios."""
    m = {key: sum(c[key] for c in per_command) for key in per_command[0]}
    scored, requested = m["bandit.scored"], m["bandit.requested"]
    m["bandit.cache_hit_frac"] = 1.0 - scored / requested if requested else 0.0
    m["bandit.selected_per_scored"] = m.pop("bandit.selected") / scored if scored else 0.0
    tokens = m["model.tokens"]
    fwd_bwd = m["model.forward_s"] + m["model.backward_s"]
    m["model.fwd_bwd_us_per_token"] = 1e6 * fwd_bwd / tokens if tokens else 0.0
    return m


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    from influence_select import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"influence_select imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
