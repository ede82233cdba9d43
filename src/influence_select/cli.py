"""Command-line pipeline: cluster, score, select, oracle-check,
simulate-bandit, report.

Exit codes: 0 success, 1 usage error (an unreadable config file, and a
config value that sizes an array beyond memory, included), 2 data error (any
OS error on a data path included), 3 numeric failure.
Every output file carries the resolved-config fingerprint (CSV/JSONL inline;
binary artifacts get a ``.meta.json`` sidecar), and commands are idempotent:
identical config implies byte-identical outputs. Each command hands all its
files to one ``_publish`` call, so a command that fails leaves them as they were.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import bandit as bandit_mod
from . import clustering, corpus, curvature, forking, influence, trainer
from . import model as model_mod
from .config import RunConfig, fingerprint, load_config
from .errors import DataError, NumericError, UsageError


def _publish(cfg: RunConfig, files: dict[str, str | bytes]) -> None:
    """The one writer of output files: each ``{name: text or bytes}`` entry is
    staged as ``<name>.partial`` in ``paths.output_dir`` before any replaces
    its name; a failed staging removes its partial files and re-raises."""
    os.makedirs(cfg.paths.output_dir, exist_ok=True)
    staged: list[str] = []  # the partial files written so far
    try:
        for name, data in files.items():
            with open(os.path.join(cfg.paths.output_dir, name + ".partial"), "wb") as fh:
                staged.append(fh.name)
                fh.write(data if isinstance(data, bytes) else data.encode("utf-8"))
        for partial in staged:
            os.replace(partial, partial.removesuffix(".partial"))
    except BaseException:
        for partial in filter(os.path.exists, staged):
            os.remove(partial)
        raise


def _require(path: str, producer: str) -> str:
    if not os.path.exists(path):
        raise DataError(f"missing artifact {path!r}; run the `{producer}` command first")
    return path


def _encode_meta(fp: str, **extra) -> str:
    return json.dumps({"config_fingerprint": fp, **extra}, sort_keys=True) + "\n"


def encode_csv(fp: str, header: str, rows) -> str:
    """The one encoder of fingerprinted CSVs: a ``# config_fingerprint=`` line,
    the ``header`` line, then one line per row; floats at 17 significant digits."""
    lines = (",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) for row in rows)
    return "\n".join([f"# config_fingerprint={fp}", header, *lines]) + "\n"


def _load_candidates(cfg: RunConfig, emb: corpus.EmbeddingCorpus, cover_all: bool = False):
    """Token table and id -> row index, checked against the corpus and the
    model (see ``corpus.load_candidates``)."""
    return corpus.load_candidates(cfg.paths.tokens, count=emb.count,
                                  vocab_size=cfg.model.vocab_size,
                                  max_context=cfg.model.max_context, cover_all=cover_all)


def _influence_setup(cfg: RunConfig, keep_factors: bool = False):
    """``influence.scoring_setup``'s ``(scoring params, ihvp, factors)`` for the
    initial parameters and the reference set, which it reads and checks;
    ``factors`` is None unless ``keep_factors``. It needs no other input, so it is
    the job ``score`` and ``select`` may fork, after the job of their own checks."""
    params = model_mod.init_params(cfg.model, seed=cfg.model.init_seed)
    ref = corpus.load_reference(cfg.paths.reference, cfg.model.vocab_size, cfg.model.max_context)
    params32, ihvp, factors = influence.scoring_setup(params, ref, cfg.influence)
    return params32, ihvp, factors if keep_factors else None


def _load_cluster_model(cfg: RunConfig, emb: corpus.EmbeddingCorpus) -> clustering.ClusterModel:
    path = _require(os.path.join(cfg.paths.output_dir, "clusters.bin"), "cluster")
    cmodel = clustering.load_cluster_model(path)
    if cmodel.k != cfg.clustering.k:
        raise DataError(
            f"{path} holds k={cmodel.k} clusters but clustering.k is {cfg.clustering.k}; "
            "re-run the `cluster` command"
        )
    if cmodel.count != emb.count:
        raise DataError(
            f"cluster model covers {cmodel.count} instances but corpus has {emb.count}; "
            "re-run the `cluster` command"
        )
    if cmodel.dim != emb.dim:
        raise DataError(
            f"cluster model dimension {cmodel.dim} does not match corpus {emb.dim}; "
            "re-run the `cluster` command"
        )
    return cmodel


def cmd_cluster(cfg: RunConfig) -> int:
    fp = fingerprint(cfg)
    emb = corpus.load_embeddings(cfg.paths.embeddings)
    emb.vectors = emb.vectors.astype(np.float64)  # k-means is float64: convert once, for both calls
    model = clustering.kmeans(
        emb, k=cfg.clustering.k, seed=cfg.clustering.seed, max_iters=cfg.clustering.max_iters
    )
    meta = _encode_meta(fp, k=model.k, count=model.count, iterations=model.n_iters,
                        converged=model.converged,
                        objective=f"{clustering.objective(model, emb):.17g}")
    _publish(cfg, {"clusters.bin": clustering.encode_cluster_model(model),
                   "clusters.bin.meta.json": meta})
    print(f"clustered {model.count} instances into k={model.k} "
          f"({model.n_iters} iterations, converged={model.converged})")
    return 0


def cmd_score(cfg: RunConfig, ids: list[int]) -> int:
    fp = fingerprint(cfg)

    def read_inputs():
        emb = corpus.load_embeddings(cfg.paths.embeddings)
        table, row_of = _load_candidates(cfg, emb)
        missing = [i for i in ids if not 0 <= i < emb.count or row_of[i] < 0]
        if missing:
            raise DataError(f"no token record for instance id(s) {missing[:5]}")
        return table, row_of

    (table, row_of), (params, ihvp, _) = forking.run_all(
        [read_inputs, functools.partial(_influence_setup, cfg)])
    rows = row_of[np.asarray(ids, dtype=np.int64)]
    scores = influence.score_batch(table.take(rows), ihvp, params)
    _publish(cfg, {"scores.csv": encode_csv(fp, "instance_id,score,method",
                                            ((i, s, ihvp.method) for i, s in zip(ids, scores)))})
    print(f"scored {len(ids)} instances -> {os.path.join(cfg.paths.output_dir, 'scores.csv')}")
    return 0


def cmd_select(cfg: RunConfig) -> int:
    fp = fingerprint(cfg)

    def read_inputs():
        emb = corpus.load_embeddings(cfg.paths.embeddings)
        table, row_of = _load_candidates(cfg, emb, cover_all=True)
        cmodel = _load_cluster_model(cfg, emb)
        bandit_mod.check_run(cfg.bandit, cmodel, cfg.selection.budget)
        return table, row_of, cmodel

    (table, row_of, cmodel), (params, ihvp, factors) = forking.run_all(
        [read_inputs, functools.partial(_influence_setup, cfg, keep_factors=True)])

    def scorer(ids):
        rows = row_of[np.asarray(ids, dtype=np.int64)]
        return influence.score_batch(table.take(rows), ihvp, params)

    ledger = bandit_mod.run(
        cfg.bandit, cmodel, scorer, budget=cfg.selection.budget, seed=cfg.selection.seed
    )
    _publish(cfg, {"selection.txt": bandit_mod.encode_selection(ledger, fingerprint=fp),
                   "ledger.jsonl": bandit_mod.encode_ledger(ledger, fingerprint=fp),
                   "factors.ntc": curvature.encode_factors(factors),
                   "factors.ntc.meta.json": _encode_meta(fp)})
    print(
        f"selected {len(ledger.selected)} / budget {cfg.selection.budget} "
        f"in {len(ledger.iterations)} iterations"
        + (" [truncated]" if ledger.truncated else "")
    )
    return 0


def cmd_oracle_check(cfg: RunConfig) -> int:
    from . import oracle  # only this command needs it: other commands skip its import

    fp = fingerprint(cfg)
    tables: dict[str, str] = {}
    try:  # a breach publishes the tables made so far, the breaching one included
        summary = oracle.run_oracle_check(
            cfg.oracle, lambda name, *table: tables.update({name: encode_csv(fp, *table)}))
    finally:
        _publish(cfg, tables)
    print(f"oracle checks passed: {summary}")
    return 0


def cmd_simulate_bandit(cfg: RunConfig) -> int:
    fp = fingerprint(cfg)
    sc = cfg.sim
    results = bandit_mod.simulate_policies(n_arms=sc.arms, steps=sc.steps, trials=sc.trials,
                                           seed=sc.seed)
    path = os.path.join(cfg.paths.output_dir, "regret.csv")
    _publish(cfg, {"regret.csv": encode_csv(fp, "policy,trial,step,regret,cum_regret",
                                            _regret_rows(results))})
    ucb = [r for r in results if r.policy == "ucb"]
    hits = sum(int(np.argmax(r.pull_counts)) == r.best_arm for r in ucb)
    print(f"simulated {sc.trials} trials x {sc.steps} steps; "
          f"ucb found best arm in {hits}/{len(ucb)} trials -> {path}")
    return 0


def _regret_rows(results):
    """(policy, trial, step, regret, cumulative regret) per simulated step."""
    for res in results:
        cum = 0.0
        for step, r in enumerate(res.regret.tolist()):
            cum += r
            yield res.policy, res.trial, step, r, cum


def cmd_report(cfg: RunConfig) -> int:
    fp = fingerprint(cfg)
    emb = corpus.load_embeddings(cfg.paths.embeddings)
    table, row_of = _load_candidates(cfg, emb, cover_all=True)
    ref = corpus.load_reference(cfg.paths.reference, cfg.model.vocab_size, cfg.model.max_context)
    cmodel = _load_cluster_model(cfg, emb)
    sel_path = _require(os.path.join(cfg.paths.output_dir, "selection.txt"), "select")
    led_path = _require(os.path.join(cfg.paths.output_dir, "ledger.jsonl"), "select")
    selected, state, trajectory = bandit_mod.replay_ledger(led_path, cmodel, sel_path)

    # selection composition per cluster
    comp = np.bincount(cmodel.assignment[np.asarray(selected, dtype=np.int64)],
                       minlength=cmodel.k).tolist()

    # end-to-end loss table: selection vs random vs top-clusters baselines
    params = model_mod.init_params(cfg.model, seed=cfg.model.init_seed)
    n = len(selected)
    baselines = []
    if n:
        seed = cfg.report.baseline_seed
        baselines = [
            ("selected", selected),
            ("random", np.random.default_rng(seed).choice(emb.count, size=n, replace=False)),
            ("top-clusters", _top_cluster_ids(cmodel, state, n, seed)),
        ]

    def trained_loss(ids) -> float:
        data = table.take(row_of[np.asarray(ids, dtype=np.int64)])
        return trainer.eval_loss(trainer.train(params, data, cfg.trainer), ref)

    # the trainings are independent and cost the same: `random` and `top-clusters`
    # may train in forked children while this process does `initial` and `selected`
    jobs = [functools.partial(trained_loss, ids) for _, ids in baselines]
    head, *rest = forking.run_all(
        [lambda: [trainer.eval_loss(params, ref), *(job() for job in jobs[:1])], *jobs[1:]])
    rows = list(zip(["initial", *(name for name, _ in baselines)], [*head, *rest]))

    _publish(cfg, {
        "report_composition.csv": encode_csv(fp, "cluster,selected_count", enumerate(comp)),
        "report_trajectories.csv": encode_csv(fp, "iteration,cluster,mean_reward", trajectory),
        "report_loss.csv": encode_csv(fp, "method,reference_loss", rows),
    })
    print("report written:", ", ".join(name for name, _ in rows))
    return 0


def _top_cluster_ids(cmodel, state, n: int, seed: int) -> list[int]:
    """Baseline: uniform sample of n ids from the top clusters by mean reward,
    taking clusters in rank order until their union can cover n."""
    means = np.where(state.pulls > 0, state.reward / np.maximum(state.pulls, 1), -np.inf)
    order = np.argsort(-means, kind="stable")
    pool: list[int] = []
    for ci in order:
        pool.extend(int(i) for i in cmodel.members(int(ci)))
        if len(pool) >= n:
            break
    rng = np.random.default_rng(seed)
    if len(pool) < n:
        return pool
    return [int(i) for i in rng.choice(np.asarray(pool), size=n, replace=False)]


def _parse_ids(args) -> list[int]:
    if args.ids_file:
        try:
            with open(args.ids_file, "r", encoding="utf-8", errors="replace") as fh:
                tokens = fh.read().split()
        except OSError as exc:
            raise UsageError(f"--ids-file {args.ids_file!r}: {exc.strerror}") from None
        source = f"--ids-file {args.ids_file!r}"
    elif args.ids:
        tokens = [tok for tok in args.ids.split(",") if tok.strip()]
        source = "--ids"
    else:
        raise UsageError("score needs --ids or --ids-file")
    ids: dict[int, None] = {}  # an ordered set of the ids read so far
    for tok in tokens:
        try:
            i = int(tok)
        except ValueError:
            raise UsageError(f"{source}: {tok.strip()!r} is not an instance id") from None
        if i in ids:
            raise UsageError(f"{source}: instance id {i} is repeated")
        ids[i] = None
    if not ids:
        raise UsageError(f"{source}: no instance ids given")
    return list(ids)


# name -> run(cfg, parsed arguments); each call looks its cmd_ function up by
# name, so a wrapper bound over one (perfbench/tracing.py) is the one run
COMMANDS = {
    "cluster": lambda cfg, args: cmd_cluster(cfg),
    "score": lambda cfg, args: cmd_score(cfg, _parse_ids(args)),
    "select": lambda cfg, args: cmd_select(cfg),
    "oracle-check": lambda cfg, args: cmd_oracle_check(cfg),
    "simulate-bandit": lambda cfg, args: cmd_simulate_bandit(cfg),
    "report": lambda cfg, args: cmd_report(cfg),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="influence-select",
        description="Quality-diversity data selection with influence-scored bandit sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key-value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (flags win over the file)")
        if name == "score":
            ids = p.add_mutually_exclusive_group()
            ids.add_argument("--ids", default=None, help="comma-separated instance ids")
            ids.add_argument("--ids-file", default=None, help="whitespace-separated id file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        # no numpy warnings: explicit finiteness checks turn every non-finite
        # result into one `numeric failure:` line and exit 3
        with np.errstate(all="ignore"):
            return COMMANDS[args.command](load_config(args.config, args.set), args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a data path the OS refuses (missing, a directory, ...)
        where = f"{exc.filename!r}: " if exc.filename is not None else ""
        print(f"data error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a config value sizing an array beyond the address space
        print(f"usage error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
