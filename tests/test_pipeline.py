import errno
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

from influence_select import cli
from influence_select.bandit import read_selection
from influence_select.corpus import write_embeddings, write_tokens
from influence_select.synthetic import SyntheticSpec, generate


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    data = generate(SyntheticSpec(
        n_instances=600, embed_dim=8, n_components=8, n_aligned=2, vocab_size=24,
        seq_len=10, n_reference=24, pattern_tokens=6, seed=5,
    ))
    write_embeddings(root / "embeddings.bin", data.embeddings)
    write_tokens(root / "tokens.tsv", data.instances)
    write_tokens(root / "reference.tsv", data.reference)
    cfg = root / "run.cfg"
    cfg.write_text(
        f"paths.embeddings = {root}/embeddings.bin\n"
        f"paths.tokens = {root}/tokens.tsv\n"
        f"paths.reference = {root}/reference.tsv\n"
        f"paths.output_dir = {root}/out\n"
        "clustering.k = 8\n"
        "model.vocab_size = 24\n"
        "model.hidden_dim = 16\n"
        "model.n_layers = 1\n"
        "model.n_heads = 2\n"
        "model.max_context = 16\n"
        "model.mlp_ratio = 2.0\n"
        "bandit.alpha = 10.0\n"
        "bandit.tau = 20.0\n"
        "bandit.gamma = 0.1\n"
        "bandit.top_k = 3\n"
        "bandit.batch_size = 6\n"
        "bandit.reward_mode = mean\n"
        "selection.budget = 60\n"
        "trainer.steps = 8\n"
        "trainer.batch_size = 8\n"
    )
    return root, cfg


def _run(*argv):
    return cli.main(list(argv))


def test_cluster_command(workdir):
    root, cfg = workdir
    assert _run("cluster", "--config", str(cfg)) == 0
    assert (root / "out" / "clusters.bin").exists()
    meta = json.loads((root / "out" / "clusters.bin.meta.json").read_text())
    assert meta["k"] == 8
    assert meta["count"] == 600


def test_select_requires_cluster_artifact(workdir, tmp_path):
    root, cfg = workdir
    code = _run("select", "--config", str(cfg), "--set", f"paths.output_dir={tmp_path}/empty")
    assert code == 2  # actionable data error naming the producing command


def test_select_and_ledger(workdir):
    root, cfg = workdir
    assert _run("select", "--config", str(cfg)) == 0
    selected = read_selection(root / "out" / "selection.txt")
    assert len(selected) >= 60
    assert len(set(selected)) == len(selected)
    lines = [json.loads(l) for l in (root / "out" / "ledger.jsonl").read_text().splitlines()]
    assert lines[-1]["selected_total"] == len(selected)


def test_select_adds_its_two_outputs(workdir, tmp_path):
    """In a fresh output directory holding the cluster model, ``select``
    adds exactly ``selection.txt`` and ``ledger.jsonl``."""
    root, cfg = workdir
    out = _clustered_copy(root, cfg, tmp_path)
    before = {p.name for p in out.iterdir()}
    assert before == {"clusters.bin", "clusters.bin.meta.json"}
    assert _run("select", "--config", str(cfg), "--set", f"paths.output_dir={out}") == 0
    assert {p.name for p in out.iterdir()} == before | {"selection.txt", "ledger.jsonl"}


def test_budget_zero_empty_selection(workdir, tmp_path):
    root, cfg = workdir
    out = tmp_path / "out0"
    assert _run("cluster", "--config", str(cfg), "--set", f"paths.output_dir={out}") == 0
    assert _run("select", "--config", str(cfg), "--set", f"paths.output_dir={out}",
                "--set", "selection.budget=0") == 0
    sel = read_selection(out / "selection.txt")
    assert sel == []


def test_score_command(workdir):
    root, cfg = workdir
    assert _run("score", "--config", str(cfg), "--ids", "0,5,10") == 0
    text = (root / "out" / "scores.csv").read_text().splitlines()
    assert text[0].startswith("# config_fingerprint=")
    assert text[1] == "instance_id,score,method"
    assert len(text) == 5
    assert text[2].split(",")[0] == "0"


def test_score_without_ids_is_usage_error(workdir):
    root, cfg = workdir
    assert _run("score", "--config", str(cfg)) == 1


def test_unknown_config_key_is_usage_error(workdir):
    root, cfg = workdir
    assert _run("cluster", "--config", str(cfg), "--set", "bogus.key=1") == 1


def test_report_composition_sums_to_selection(workdir):
    root, cfg = workdir
    assert _run("report", "--config", str(cfg)) == 0
    comp_lines = (root / "out" / "report_composition.csv").read_text().splitlines()[2:]
    total = sum(int(line.split(",")[1]) for line in comp_lines)
    assert total == len(read_selection(root / "out" / "selection.txt"))
    loss_lines = (root / "out" / "report_loss.csv").read_text().splitlines()
    methods = [l.split(",")[0] for l in loss_lines[2:]]
    assert methods == ["initial", "selected", "random", "top-clusters"]


def test_simulate_bandit_command(workdir, tmp_path):
    root, cfg = workdir
    out = tmp_path / "sim"
    assert _run("simulate-bandit", "--config", str(cfg),
                "--set", f"paths.output_dir={out}",
                "--set", "sim.trials=2", "--set", "sim.steps=50") == 0
    lines = (out / "regret.csv").read_text().splitlines()
    assert lines[1] == "policy,trial,step,regret,cum_regret"
    policies = {l.split(",")[0] for l in lines[2:]}
    assert policies == {"ucb", "topk-greedy", "random"}


def test_oracle_check_command(workdir, tmp_path):
    root, cfg = workdir
    out = tmp_path / "oracle"
    assert _run("oracle-check", "--config", str(cfg),
                "--set", f"paths.output_dir={out}",
                "--set", "oracle.candidates=60") == 0
    for name in ("oracle_kronecker.csv", "oracle_gradcheck.csv", "oracle_methods.csv"):
        assert (out / name).exists()
    methods = (out / "oracle_methods.csv").read_text()
    assert "joint-qkv" in methods


def test_package_and_cli_import_without_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy is a test-only reference
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    scipy_modules = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
    probe = f"import influence_select, influence_select.cli, sys; print({scipy_modules})"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
    argv = ["oracle-check", "--set", f"paths.output_dir={tmp_path}"]
    probe = f"import sys; from influence_select import cli; code = cli.main({argv!r}); " \
            f"print(code, {scipy_modules})"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "0 []"


def test_cli_imports_the_oracle_only_for_oracle_check():
    """Every command but oracle-check starts without importing oracle.py."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import influence_select.cli, sys; print('influence_select.oracle' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_rerun_is_byte_identical(workdir, tmp_path):
    root, cfg = workdir
    out = tmp_path / "det"
    args = ["--config", str(cfg), "--set", f"paths.output_dir={out}"]
    assert _run("cluster", *args) == 0
    assert _run("select", *args) == 0
    first = {
        name: (out / name).read_bytes()
        for name in ("clusters.bin", "selection.txt", "ledger.jsonl")
    }
    assert _run("cluster", *args) == 0
    assert _run("select", *args) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_missing_embeddings_is_data_error(workdir, tmp_path):
    root, cfg = workdir
    assert _run("cluster", "--config", str(cfg),
                "--set", "paths.embeddings=/nonexistent/x.bin") == 2


def _unreadable_path(case, cfg, tmp):
    """``(arguments, the path the error must name)`` for one case."""
    if case == "missing-config":
        return ["--config", str(tmp / "nope.cfg")], tmp / "nope.cfg"
    if case == "non-utf8-config":
        (tmp / "bad.cfg").write_bytes(b"clustering.k = 8\n\xff\n")
        return ["--config", str(tmp / "bad.cfg")], tmp / "bad.cfg"
    if case == "embeddings-is-a-directory":
        return ["--config", str(cfg), "--set", f"paths.embeddings={tmp}"], tmp
    (tmp / "out").write_text("")
    return ["--config", str(cfg), "--set", f"paths.output_dir={tmp / 'out'}"], tmp / "out"


@pytest.mark.parametrize("case, code", [
    ("missing-config", 1), ("non-utf8-config", 1),
    ("embeddings-is-a-directory", 2), ("output-dir-is-a-file", 2),
])
def test_unreadable_path_exits_naming_it(workdir, tmp_path, capsys, case, code):
    root, cfg = workdir
    argv, path = _unreadable_path(case, cfg, tmp_path)
    assert _run("cluster", *argv) == code
    err = capsys.readouterr().err
    assert err.startswith("usage error: " if code == 1 else "data error: ")
    assert repr(str(path)) in err
    assert "Traceback" not in err


def test_sketched_selection_path(workdir, tmp_path):
    root, cfg = workdir
    out = tmp_path / "sk"
    args = ["--config", str(cfg), "--set", f"paths.output_dir={out}",
            "--set", "influence.use_sketch=true", "--set", "influence.sketch_dim=64",
            "--set", "selection.budget=20"]
    assert _run("cluster", *args) == 0
    assert _run("select", *args) == 0
    assert len(read_selection(out / "selection.txt")) >= 20
    assert _run("score", *args, "--ids", "0,1") == 0
    lines = (out / "scores.csv").read_text().splitlines()
    assert lines[2].endswith("factored+sketch")


# ------------------------------------------------- checks before factor setup


@pytest.fixture
def no_factor_setup(monkeypatch):
    """Fail the test if this process runs the curvature setup: input checks
    must come first. (A forked setup child that runs it sends the error
    back, and this process, stopped by an input check, never reads it.)"""
    from influence_select import curvature

    def boom(*args, **kwargs):
        raise AssertionError("collect_factors ran before the input checks")

    monkeypatch.setattr(curvature, "collect_factors", boom)


def _clustered_copy(root, cfg, tmp_path):
    out = tmp_path / "out"
    assert _run("cluster", "--config", str(cfg), "--set", f"paths.output_dir={out}") == 0
    return out


@pytest.mark.parametrize("override, needle", [
    ("bandit.top_k=9", "top_k=9 exceeds cluster count 8"),
    ("selection.budget=601", "budget 601 exceeds corpus count 600"),
])
def test_select_checks_bandit_inputs_before_curvature_setup(workdir, tmp_path, capsys,
                                                            no_factor_setup, override, needle):
    root, cfg = workdir
    out = _clustered_copy(root, cfg, tmp_path)
    code = _run("select", "--config", str(cfg), "--set", f"paths.output_dir={out}",
                "--set", override)
    err = capsys.readouterr().err
    assert code == 2
    assert needle in err
    assert "Traceback" not in err


def test_select_non_finite_score_is_typed_error(workdir, tmp_path, monkeypatch, capsys):
    from influence_select import influence

    root, cfg = workdir
    out = _clustered_copy(root, cfg, tmp_path)
    real = influence.reference_ihvp

    def poisoned(*args, **kwargs):
        ihvp = real(*args, **kwargs)
        ihvp.vectors = {name: vec * np.nan for name, vec in ihvp.vectors.items()}
        return ihvp

    monkeypatch.setattr(influence, "reference_ihvp", poisoned)
    code = _run("select", "--config", str(cfg), "--set", f"paths.output_dir={out}")
    assert code == 3
    assert "non-finite influence score" in capsys.readouterr().err
    assert not (out / "ledger.jsonl").exists()
    assert not (out / "selection.txt").exists()


@pytest.mark.parametrize("command", ["select", "report"])
def test_truncated_token_file_fails_at_load(workdir, tmp_path, capsys, no_factor_setup, command):
    root, cfg = workdir
    out = _clustered_copy(root, cfg, tmp_path)
    (out / "selection.txt").write_text("0\n")
    (out / "ledger.jsonl").write_text("")
    lines = (root / "tokens.tsv").read_text().splitlines(keepends=True)
    short = tmp_path / "tokens.tsv"
    short.write_text("".join(lines[:450]))
    code = _run(command, "--config", str(cfg), "--set", f"paths.output_dir={out}",
                "--set", f"paths.tokens={short}")
    assert code == 2
    assert "embedding row 450 has no token record" in capsys.readouterr().err


@pytest.mark.parametrize("tokens", [[5], list(range(17))])
def test_candidate_length_outside_context_fails_at_load(workdir, tmp_path, capsys,
                                                       no_factor_setup, tokens):
    root, cfg = workdir
    out = _clustered_copy(root, cfg, tmp_path)
    lines = (root / "tokens.tsv").read_text().splitlines(keepends=True)
    lines[37] = "37\t" + " ".join(str(t % 24) for t in tokens) + "\n"
    bad = tmp_path / "tokens.tsv"
    bad.write_text("".join(lines))
    for command in (["select"], ["score", "--ids", "0"]):
        code = _run(*command, "--config", str(cfg), "--set", f"paths.output_dir={out}",
                    "--set", f"paths.tokens={bad}")
        assert code == 2
        assert "instance 37 has length" in capsys.readouterr().err


def test_reference_length_outside_context_fails_at_load(workdir, tmp_path, capsys,
                                                       no_factor_setup):
    root, cfg = workdir
    out = _clustered_copy(root, cfg, tmp_path)
    lines = (root / "reference.tsv").read_text().splitlines(keepends=True)
    lines[3] = "3\t" + " ".join(["1"] * 17) + "\n"
    bad = tmp_path / "reference.tsv"
    bad.write_text("".join(lines))
    code = _run("select", "--config", str(cfg), "--set", f"paths.output_dir={out}",
                "--set", f"paths.reference={bad}")
    assert code == 2
    assert "reference id 3 has length 17" in capsys.readouterr().err


@pytest.mark.parametrize("text, needle", [
    ("", "reference set is empty"),
    ("0\t1 2 3\n1\t4 5\n2\t6 24 7\n", "reference id 2 has token id >= vocab_size 24"),
])
def test_score_reference_errors_name_the_file(workdir, tmp_path, capsys, no_factor_setup,
                                             text, needle):
    root, cfg = workdir
    bad = tmp_path / "reference.tsv"
    bad.write_text(text)
    code = _run("score", "--config", str(cfg), "--ids", "0", "--set", f"paths.reference={bad}",
                "--set", f"paths.output_dir={tmp_path}/out")
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}: {needle}" in err
    assert "Traceback" not in err


# ------------------------------------------------------ bad inputs exit 1 or 2


def test_non_utf8_token_file_is_data_error(workdir, tmp_path, capsys):
    root, cfg = workdir
    bad = tmp_path / "tokens.tsv"
    bad.write_bytes((root / "tokens.tsv").read_bytes() + b"600\t1 2\xff\n")
    code = _run("score", "--config", str(cfg), "--ids", "0", "--set", f"paths.tokens={bad}",
                "--set", f"paths.output_dir={tmp_path}/out")
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}:601: byte 0xff is not allowed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, code, needle", [
    (["--ids", "1,a"], 1, "--ids: 'a' is not an instance id"),
    (["--ids-file", "/nonexistent/ids.txt"], 1, "--ids-file '/nonexistent/ids.txt'"),
    (["--ids", "-1"], 2, "no token record for instance id(s) [-1]"),
    (["--ids", "3,600"], 2, "no token record for instance id(s) [600]"),
    (["--ids", ","], 1, "--ids: no instance ids given"),
    (["--ids", "1,2", "--ids-file", "/nonexistent/ids.txt"], 1,
     "argument --ids-file: not allowed with argument --ids"),
    (["--ids", "0,5,10,599,5"], 1, "--ids: instance id 5 is repeated"),
])
def test_score_bad_ids(workdir, tmp_path, capsys, no_factor_setup, argv, code, needle):
    root, cfg = workdir
    assert _run("score", "--config", str(cfg), *argv,
                "--set", f"paths.output_dir={tmp_path}/out") == code
    err = capsys.readouterr().err
    assert needle in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_score_junk_in_ids_file(workdir, tmp_path, capsys):
    root, cfg = workdir
    ids = tmp_path / "ids.txt"
    ids.write_text("0 1\n2x\n")
    assert _run("score", "--config", str(cfg), "--ids-file", str(ids)) == 1
    assert f"--ids-file '{ids}': '2x' is not an instance id" in capsys.readouterr().err


def test_score_empty_ids_file(workdir, tmp_path, capsys, no_factor_setup):
    root, cfg = workdir
    ids = tmp_path / "ids.txt"
    ids.write_text(" \n\n")
    assert _run("score", "--config", str(cfg), "--ids-file", str(ids),
                "--set", f"paths.output_dir={tmp_path}/out") == 1
    err = capsys.readouterr().err
    assert f"--ids-file '{ids}': no instance ids given" in err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def selected_out(workdir, tmp_path_factory):
    root, cfg = workdir
    out = tmp_path_factory.mktemp("selected")
    assert _run("cluster", "--config", str(cfg), "--set", f"paths.output_dir={out}") == 0
    assert _run("select", "--config", str(cfg), "--set", f"paths.output_dir={out}") == 0
    return out


def _set(line, key, value, pull=True):
    """The ledger line with ``key`` of its first pull (or of the record) set."""
    rec = json.loads(line)
    (rec["pulls"][0] if pull else rec)[key] = value
    return json.dumps(rec, sort_keys=True) + "\n"


@pytest.mark.parametrize("name, lineno, edit, needle", [
    ("selection.txt", 3, lambda lines: "abc\n", "bad instance id 'abc'"),
    ("selection.txt", 3, lambda lines: "-3\n", "instance id -3 has no embedding row"),
    ("selection.txt", 3, lambda lines: "99999\n", "instance id 99999 has no embedding row"),
    ("selection.txt", 4, lambda lines: lines[1], "duplicate instance id"),
    ("ledger.jsonl", 2, lambda lines: "{not json\n", "not a JSON record"),
    ("ledger.jsonl", 2, lambda lines: _set(lines[1], "cluster", 8),
     "pull of cluster 8, outside [0, k=8)"),
    ("ledger.jsonl", 2, lambda lines: _set(lines[1], "cluster", -1), "pull of cluster -1"),
    ("ledger.jsonl", 2, lambda lines: _set(lines[1], "iteration", "abc", pull=False),
     "iteration 'abc': expected an int >= 0"),
    ("ledger.jsonl", 2, lambda lines: _set(lines[1], "iteration", -1, pull=False),
     "iteration -1: expected an int >= 0"),
    ("ledger.jsonl", 4, lambda lines: _set(lines[3], "iteration", 0, pull=False),
     "iteration 0: expected an int >= 1"),
    ("ledger.jsonl", 3,  # line 3 without its iteration key
     lambda lines: json.dumps({k: v for k, v in json.loads(lines[2]).items()
                               if k != "iteration"}) + "\n",
     "record has no iteration"),
    ("ledger.jsonl", 2, lambda lines: _set(lines[1], "batch_sum", float("nan")),
     "batch_sum nan of cluster 0 is not a finite number"),
    ("ledger.jsonl", 2, lambda lines: _set(lines[1], "batch_sum", "1.5"),
     "batch_sum '1.5' of cluster 0 is not a finite number"),
    ("ledger.jsonl", 2, lambda lines: _set(lines[1], "sampled_ids", []),
     "sampled_ids of cluster 0 is not a non-empty list"),
    ("ledger.jsonl", 2,  # an id of the line's second pull, from cluster 1
     lambda lines: _set(lines[1], "sampled_ids", json.loads(lines[1])["pulls"][1]["sampled_ids"]),
     "is not a member of cluster 0"),
    ("ledger.jsonl", 2, lambda lines: _set(lines[1], "sampled_ids", [True]),
     "sampled id True is not a member of cluster 0"),
    ("ledger.jsonl", 1, lambda lines: '{"config_fingerprint": "0"}\n',
     "header record has reward_mode None"),
    ("ledger.jsonl", 1, lambda lines: _set(lines[0], "reward_mode", "median", pull=False),
     "header record has reward_mode 'median'"),
])
def test_report_rejects_bad_selection_or_ledger(selected_out, workdir, tmp_path, capsys,
                                                monkeypatch, name, lineno, edit, needle):
    """Each case edits line ``lineno`` of one artifact of a real selection."""
    from influence_select import trainer

    def boom(*args, **kwargs):
        raise AssertionError("training ran before the selection and ledger checks")

    monkeypatch.setattr(trainer, "train", boom)
    root, cfg = workdir
    out = tmp_path / "out"
    shutil.copytree(selected_out, out)
    path = out / name
    lines = path.read_text().splitlines(keepends=True)
    lines[lineno - 1] = edit(lines)
    path.write_text("".join(lines))
    code = _run("report", "--config", str(cfg), "--set", f"paths.output_dir={out}")
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path}:{lineno}: " in err and needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["select", "report"])
def test_stale_cluster_model_is_data_error(selected_out, workdir, tmp_path, capsys,
                                           no_factor_setup, command):
    """A clusters.bin made at another clustering.k is not used."""
    root, cfg = workdir
    out = tmp_path / "out"
    shutil.copytree(selected_out, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code = _run(command, "--config", str(cfg), "--set", f"paths.output_dir={out}",
                "--set", "clustering.k=4")
    err = capsys.readouterr().err
    assert code == 2
    assert f"{out / 'clusters.bin'} holds k=8 clusters but clustering.k is 4" in err
    assert "re-run the `cluster` command" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _snapshot(out):
    """Every file under ``out``, by relative path, with its bytes."""
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}


@pytest.mark.parametrize("case", ["selection cut short", "ledger without its summary",
                                  "ledger of another select"])
def test_report_rejects_a_selection_and_ledger_of_different_selects(
        selected_out, workdir, tmp_path, capsys, monkeypatch, case):
    """``selection.txt`` and ``ledger.jsonl`` must carry one fingerprint, and
    the ledger must end in the summary record that counts the selection."""
    from influence_select import trainer

    root, cfg = workdir
    out = tmp_path / "out"
    shutil.copytree(selected_out, out)
    sel, led = out / "selection.txt", out / "ledger.jsonl"
    led_lines = led.read_text().splitlines(keepends=True)
    if case == "selection cut short":
        sel.write_text("".join(sel.read_text().splitlines(keepends=True)[:41]))  # 40 ids
        where = f"{led}:{len(led_lines)}: expected a summary record with selected_total 40"
    elif case == "ledger without its summary":
        led.write_text("".join(led_lines[:-1]))
        where = f"{led}:{len(led_lines) - 1}: expected a summary record"
    else:
        other = tmp_path / "other"
        shutil.copytree(selected_out, other)
        assert _run("select", "--config", str(cfg), "--set", f"paths.output_dir={other}",
                    "--set", "bandit.tau=15.0") == 0
        shutil.copyfile(other / "ledger.jsonl", led)
        where = f"{sel}:1: expected '# config_fingerprint="
    def boom(*args, **kwargs):
        raise AssertionError("training ran before the selection and ledger checks")

    monkeypatch.setattr(trainer, "train", boom)
    code = _run("report", "--config", str(cfg), "--set", f"paths.output_dir={out}")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"data error: {where}"), err


@pytest.mark.parametrize("failure", ["encode", "stage"])
def test_select_that_cannot_publish_leaves_the_directory_as_it_was(
        selected_out, workdir, tmp_path, capsys, monkeypatch, failure):
    """A ``select`` whose last file fails to encode (a full disk, say), or
    whose ``ledger.jsonl`` cannot be staged, exits 2 and leaves every file of
    the output directory byte-identical, with no ``*.partial`` file."""
    from influence_select import bandit

    root, cfg = workdir
    out = tmp_path / "out"
    shutil.copytree(selected_out, out)
    if failure == "encode":
        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(bandit, "encode_ledger", full)
        needle = os.strerror(errno.ENOSPC)
    else:  # selection.txt.partial is written, then ledger.jsonl.partial is refused
        (out / "ledger.jsonl.partial").mkdir()
        needle = f"data error: {str(out / 'ledger.jsonl.partial')!r}: "
    before = _snapshot(out)
    code = _run("select", "--config", str(cfg), "--set", f"paths.output_dir={out}",
                "--set", "bandit.tau=15.0")
    assert code == 2
    assert needle in capsys.readouterr().err
    assert _snapshot(out) == before
    assert [p.name for p in out.iterdir() if p.name.endswith(".partial") and p.is_file()] == []


def test_oracle_breach_publishes_the_tables_made_so_far(tmp_path, capsys, monkeypatch):
    """A tolerance breach exits 3 and still publishes the tables computed up
    to the breach, the breaching one included."""
    from influence_select import oracle

    monkeypatch.setattr(oracle, "finite_difference_check", lambda *args: 1.0)
    out = tmp_path / "out"
    assert _run("oracle-check", "--set", f"paths.output_dir={out}") == 3
    assert capsys.readouterr().err.startswith("numeric failure: gradient check breach")
    assert sorted(p.name for p in out.iterdir()) == ["oracle_gradcheck.csv",
                                                     "oracle_kronecker.csv"]
    assert (out / "oracle_gradcheck.csv").read_text().splitlines()[2] == \
        "finite-difference-sample,1"


def test_report_non_finite_loss_exits_3(selected_out, workdir, tmp_path, capsys):
    """A learning rate that drives the loss to nan stops ``report`` with a
    numeric failure, and leaves an earlier report's three tables as they were."""
    root, cfg = workdir
    out = tmp_path / "out"
    shutil.copytree(selected_out, out)
    args = ["--config", str(cfg), "--set", f"paths.output_dir={out}"]
    assert _run("report", *args) == 0
    tables = ("report_composition.csv", "report_trajectories.csv", "report_loss.csv")
    before = {name: (out / name).read_bytes() for name in tables}
    capsys.readouterr()
    code = _run("report", *args, "--set", "trainer.learning_rate=1e300")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numeric failure: non-finite loss")
    assert {name: (out / name).read_bytes() for name in tables} == before


def test_numeric_failure_prints_one_stderr_line(selected_out, workdir, tmp_path):
    """In a fresh process, with numpy's default error state, a diverging
    ``report`` prints its one ``numeric failure:`` line and no warnings."""
    root, cfg = workdir
    out = tmp_path / "out"
    shutil.copytree(selected_out, out)
    done = subprocess.run(
        [sys.executable, "-m", "influence_select", "report", "--config", str(cfg),
         "--set", f"paths.output_dir={out}", "--set", "trainer.learning_rate=1e300"],
        env=dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src")),
        capture_output=True, text=True)
    assert done.returncode == 3
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure:"), done.stderr


# ------------------------------------------------------------ the entry point


@pytest.mark.parametrize("code, argv", [
    (0, ["cluster"]),
    (1, ["select", "--set", "no.such_key=1"]),
    (2, ["cluster", "--set", "paths.embeddings=missing.bin"]),
    (3, ["report", "--set", "trainer.learning_rate=1e300"]),
])
def test_the_entry_point_keeps_exit_codes_and_output(selected_out, workdir, tmp_path, capsys,
                                                     code, argv):
    """``python -m influence_select``, which freezes the import-time heap,
    exits as ``cli.main`` returns, and its stdout and stderr arrive whole
    through a pipe, buffered: the bytes ``cli.main`` prints in this process."""
    root, cfg = workdir
    out = tmp_path / "out"
    shutil.copytree(selected_out, out)
    argv = [*argv, "--config", str(cfg), "--set", f"paths.output_dir={out}"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run([sys.executable, "-m", "influence_select", *argv], cwd=tmp_path,
                          env=dict(env, PYTHONPATH=os.path.join(_REPO, "src")),
                          capture_output=True, text=True)
    capsys.readouterr()
    with pytest.MonkeyPatch.context() as m:
        m.chdir(tmp_path)
        assert _run(*argv) == code
    assert (done.returncode, done.stdout, done.stderr) == (code, *capsys.readouterr())


# a `simulate-bandit` whose command prints the collector's state in its
# process and in a forked `Served` child: pid, frozen objects?, enabled?
_FREEZE_PROBE = """
import gc, os, sys
from influence_select import cli, forking
from influence_select.__main__ import main

def probe(cfg, args):
    state = lambda: (os.getpid(), gc.get_freeze_count() > 0, gc.isenabled())
    with forking.Served(state) as child:
        child.submit()
        print(*state(), *child.collect())
    return 0

assert gc.get_freeze_count() == 0 and gc.isenabled()
forking.may_fork = lambda: True
cli.COMMANDS["simulate-bandit"] = probe
sys.exit(main())
"""


def test_a_command_and_its_served_child_run_frozen_with_the_collector_on():
    done = subprocess.run([sys.executable, "-c", _FREEZE_PROBE, "simulate-bandit"],
                          env=dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src")),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    here, here_frozen, here_on, child, child_frozen, child_on = done.stdout.split()
    assert here != child
    assert [here_frozen, here_on, child_frozen, child_on] == ["True"] * 4



# ------------------------------------------------------------ forked report

_TABLES = ("report_composition.csv", "report_trajectories.csv", "report_loss.csv")


def _run_on(cpus, out, names, monkeypatch, capsys, *argv):
    """The command ``argv`` with ``forking.may_fork`` seeing ``cpus`` CPUs:
    (exit code, stderr, the bytes of the outputs ``names`` in ``out``, None
    for one not there, the child pids forked). No child may be left afterwards."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    capsys.readouterr()
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        m.setattr(os, "fork", counted_fork)
        code = _run(*argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    files = {name: (out / name).read_bytes() if (out / name).exists() else None for name in names}
    return code, capsys.readouterr().err, files, pids


def _report_on(cpus, cfg, out, monkeypatch, capsys):
    """``_run_on`` for ``report`` into ``out``, reading its three tables."""
    return _run_on(cpus, out, _TABLES, monkeypatch, capsys,
                   "report", "--config", str(cfg), "--set", f"paths.output_dir={out}")


@pytest.mark.parametrize("failing", [["random"], ["top-clusters"], ["selected"],
                                     ["random", "top-clusters"], ["selected", "top-clusters"]])
def test_forked_report_raises_the_serial_error(selected_out, workdir, tmp_path, monkeypatch,
                                               capsys, failing):
    """A baseline whose training raises, in a child or in this process while
    the children run, stops ``report`` with exit 3 and the serial message:
    that of the first failing baseline in table order. The tables of an
    earlier run keep their bytes."""
    from influence_select import trainer
    from influence_select.errors import TrainingDivergedError

    root, cfg = workdir
    out = tmp_path / "out"
    shutil.copytree(selected_out, out)
    train = trainer.train
    trained = []  # the id set of each baseline, in training order

    def recording(params, data, cfg):
        trained.append(frozenset(data.ids.tolist()))
        return train(params, data, cfg)

    monkeypatch.setattr(trainer, "train", recording)
    code, _, before, _ = _report_on(1, cfg, out, monkeypatch, capsys)
    assert code == 0
    name_of = dict(zip(trained, ["selected", "random", "top-clusters"]))
    assert len(name_of) == 3

    def diverging(params, data, cfg):
        name = name_of[frozenset(data.ids.tolist())]
        if name in failing:
            raise TrainingDivergedError(f"{name} diverged")
        return train(params, data, cfg)

    monkeypatch.setattr(trainer, "train", diverging)
    serial = _report_on(1, cfg, out, monkeypatch, capsys)
    forked = _report_on(2, cfg, out, monkeypatch, capsys)
    assert serial[:3] == forked[:3] == (3, f"numeric failure: {failing[0]} diverged\n", before)
    assert len(forked[3]) == 2


@pytest.mark.parametrize("case", ["child sends nothing", "fork fails", "another thread"])
def test_report_falls_back_to_the_serial_path(selected_out, workdir, tmp_path, monkeypatch,
                                              capsys, case):
    """A failing ``os.fork``, or a live second thread, keeps every training in
    this process, and the tables are the serial ones. A child that ends before
    it sends its loss stops ``report`` with exit 2 and one line naming the
    first such child and its exit status; no training runs again here, and
    the tables keep their bytes."""
    import threading

    from influence_select import forking, trainer

    root, cfg = workdir
    out = tmp_path / "out"
    shutil.copytree(selected_out, out)
    code, _, serial, _ = _report_on(1, cfg, out, monkeypatch, capsys)
    assert code == 0
    train, trained = trainer.train, []  # trained: this process's trainings

    def recording(*args):
        trained.append(args)
        return train(*args)

    monkeypatch.setattr(trainer, "train", recording)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    if case == "child sends nothing":
        monkeypatch.setattr(forking.pickle, "dump", lambda obj, fh, **kwargs: os._exit(1))
    elif case == "fork fails":
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
    else:
        other.start()
    try:
        code, err, tables, pids = _report_on(2, cfg, out, monkeypatch, capsys)
    finally:
        release.set()
        if other.is_alive():
            other.join(30)
    assert not other.is_alive()
    assert tables == serial
    if case == "child sends nothing":
        assert len(pids) == 2 and len(trained) == 1
        assert (code, err) == (
            2, f"data error: forked child {pids[0]} exited with status 1 before it sent a result\n")
    else:
        assert pids == [] and len(trained) == 3 and code == 0


# ----------------------------------------------------- forked scoring setup

_SETUP_OUTPUTS = {
    "score": ("scores.csv",),
    "select": ("selection.txt", "ledger.jsonl"),
}


def _setup_run_on(cpus, command, cfg, out, monkeypatch, capsys, *extra):
    """``_run_on`` for ``score`` (of ids 0, 5 and 10 unless ``extra`` names
    others) or ``select`` into ``out``, reading their outputs."""
    ids = ["--ids", "0,5,10"] if command == "score" and "--ids" not in extra else []
    return _run_on(cpus, out, _SETUP_OUTPUTS[command], monkeypatch, capsys, command,
                   "--config", str(cfg), "--set", f"paths.output_dir={out}", *ids, *extra)


@pytest.mark.parametrize("command, case", [
    ("score", "bad tokens.tsv line"), ("select", "bad tokens.tsv line"),
    ("score", "bad reference file"), ("select", "bad reference file"),
    ("score", "missing --ids id"), ("select", "stale clusters.bin"),
    ("score", "bad reference file, missing --ids id"),
    ("select", "bad reference file, stale clusters.bin"),
    ("score", "numeric failure in the setup"), ("select", "numeric failure in the setup"),
    ("select", "non-finite score in the child's half"),
])
def test_forked_setup_raises_the_serial_error(selected_out, workdir, tmp_path, monkeypatch,
                                              capsys, command, case):
    """An input the command checks, a reference the setup checks, and an
    error of the setup itself each stop the command with the one-CPU run's
    message and exit code; the command's own checks come before the
    reference's. ``score`` meets them while its setup child runs; ``select``
    reads and sets up before it forks, so it meets them with no child. A
    non-finite score in the half of a scorer call that ``select``'s child
    scores gives the one-CPU ``numeric failure:`` line. No output changes."""
    from influence_select import influence
    from influence_select.errors import NumericError

    root, cfg = workdir
    out = tmp_path / "out"
    shutil.copytree(selected_out, out)
    extra = []
    if case == "bad tokens.tsv line":
        lines = (root / "tokens.tsv").read_text().splitlines(keepends=True)
        lines[100] = "x\t1 2\n"
        (tmp_path / "tokens.tsv").write_text("".join(lines))
        extra = ["--set", f"paths.tokens={tmp_path / 'tokens.tsv'}"]
        code, needle = 2, f"data error: {tmp_path / 'tokens.tsv'}:101: bad instance id 'x'"
    if case.startswith("bad reference file"):
        lines = (root / "reference.tsv").read_text().splitlines(keepends=True)
        lines[3] = "3\t" + " ".join(["1"] * 17) + "\n"
        (tmp_path / "reference.tsv").write_text("".join(lines))
        extra = ["--set", f"paths.reference={tmp_path / 'reference.tsv'}"]
        code, needle = 2, f"data error: {tmp_path / 'reference.tsv'}: reference id 3 has length 17"
    if case.endswith("missing --ids id"):
        extra += ["--ids", "0,9999"]
        code, needle = 2, "data error: no token record for instance id(s) [9999]"
    if case.endswith("stale clusters.bin"):
        extra += ["--set", "clustering.k=4"]
        code, needle = 2, (f"data error: {out / 'clusters.bin'} holds k=8 clusters "
                           "but clustering.k is 4")
    if case == "numeric failure in the setup":
        def diverging(*args, **kwargs):
            raise NumericError("setup diverged")

        monkeypatch.setattr(influence, "scoring_setup", diverging)
        code, needle = 3, "numeric failure: setup diverged"
    if case == "non-finite score in the child's half":
        first_call = _scorer_calls(selected_out / "ledger.jsonl")[0]
        halves = _halves(first_call)
        score_batch = influence.score_batch

        def poisoned(table, ihvp, params):  # the last id's half scores nan
            if first_call[-1] in table.ids.tolist():
                ihvp = influence.IhvpVector({k: v * np.nan for k, v in ihvp.vectors.items()})
            return score_batch(table, ihvp, params)

        monkeypatch.setattr(influence, "score_batch", poisoned)
        code, needle = 3, f"numeric failure: non-finite influence score for instance {halves[1][0]}"
    before = {name: (out / name).read_bytes() if (out / name).exists() else None
              for name in _SETUP_OUTPUTS[command]}
    serial = _setup_run_on(1, command, cfg, out, monkeypatch, capsys, *extra)
    forked = _setup_run_on(2, command, cfg, out, monkeypatch, capsys, *extra)
    assert serial[:3] == forked[:3]
    assert serial[0] == code and serial[1].startswith(needle) and serial[1].count("\n") == 1
    assert serial[2] == before
    forks = command == "score" or case == "non-finite score in the child's half"
    assert serial[3] == [] and len(forked[3]) == forks


def _scorer_calls(ledger):
    """The ids of each scorer call of the ``select`` that wrote ``ledger``, in
    call order: per iteration, its sampled ids that no earlier call scored."""
    calls, scored = [], set()
    for line in ledger.read_text().splitlines():
        fresh = [i for pull in json.loads(line).get("pulls", []) for i in pull["sampled_ids"]
                 if i not in scored]
        scored.update(fresh)
        calls += [fresh] if fresh else []
    return calls


def _halves(ids):
    """``select``'s split of one scorer call: (its process's ids, its child's)."""
    cut = (len(ids) + 1) // 2
    return ids[:cut], ids[cut:]


def test_a_killed_scoring_child_is_an_error(selected_out, workdir, tmp_path, monkeypatch,
                                            capsys):
    """A scoring child of ``select`` killed on its second call stops the
    command with exit 2 and one line naming it and its signal; it is reaped,
    and none of ``select``'s outputs is written."""
    from influence_select import influence

    root, cfg = workdir
    out = tmp_path / "out"
    shutil.copytree(selected_out, out)
    for name in _SETUP_OUTPUTS["select"]:
        (out / name).unlink()
    parent, score_batch, child_calls = os.getpid(), influence.score_batch, []

    def killed_on_its_second_call(*args):
        if os.getpid() != parent:
            child_calls.append(args)  # the child's own copy of the list
            if len(child_calls) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        return score_batch(*args)

    monkeypatch.setattr(influence, "score_batch", killed_on_its_second_call)
    code, err, files, pids = _setup_run_on(2, "select", cfg, out, monkeypatch, capsys)
    assert (code, err) == (2, f"data error: forked child {pids[0]} was killed by signal 9 "
                              f"({signal.strsignal(signal.SIGKILL)}) before it sent a result\n")
    assert len(pids) == 1 and files == dict.fromkeys(_SETUP_OUTPUTS["select"])


def test_a_scorer_call_of_one_id_or_none(selected_out, workdir, tmp_path, monkeypatch, capsys):
    """``select``'s scorer, with its child, scores a call of no id, of one id
    (the child's half is empty) and of three, as ``score_batch`` does here."""
    from influence_select import bandit, corpus, influence
    from influence_select.config import load_config

    root, cfg = workdir
    out = tmp_path / "out"
    shutil.copytree(selected_out, out)
    run, got = bandit.run, []

    def probing(bandit_cfg, cmodel, scorer, **kwargs):
        got.extend(scorer(ids) for ids in ([], [7], [7, 8, 9]))
        return run(bandit_cfg, cmodel, scorer, **kwargs)

    monkeypatch.setattr(bandit, "run", probing)
    code, _, _, pids = _setup_run_on(2, "select", cfg, out, monkeypatch, capsys)
    assert code == 0 and len(pids) == 1
    run_cfg = load_config(str(cfg), [])
    table, row_of = cli._load_candidates(run_cfg, corpus.load_embeddings(run_cfg.paths.embeddings))
    params, ihvp = cli._influence_setup(run_cfg)
    want = influence.score_batch(table.take(row_of[[7, 8, 9]]), ihvp, params)
    assert got == [[], want[:1], want]


def test_a_bad_reference_pipe_gives_its_error(workdir, tmp_path):
    """The setup reads the reference once, in a child when it forks one, so a
    bad reference given as a pipe exits 2 with its message on one CPU and on
    more: the child sends its error back, since a rerun could not read the
    pipe again."""
    root, cfg = workdir
    fifo = tmp_path / "reference.fifo"
    os.mkfifo(fifo)
    argv = [sys.executable, "-m", "influence_select", "score", "--config", str(cfg), "--ids", "0",
            "--set", f"paths.reference={fifo}", "--set", f"paths.output_dir={tmp_path / 'out'}"]
    write = "import sys; open(sys.argv[1], 'w').write('0\\t1 2\\n1\\t3 24\\n')"
    cpus = os.sched_getaffinity(0)
    for run_on in ({min(cpus)}, cpus):
        writer = subprocess.Popen([sys.executable, "-c", write, str(fifo)])
        try:
            done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src")),
                                  capture_output=True, text=True, timeout=60,
                                  preexec_fn=lambda: os.sched_setaffinity(0, run_on))
        finally:
            writer.kill()
            writer.wait()
        assert done.returncode == 2
        assert done.stderr == f"data error: {fifo}: reference id 1 has token id >= vocab_size 24\n"


# `score`, with the influence setup SIGKILLed when it runs in a forked child:
# after the child has read the reference
_SETUP_CHILD_KILLED = """
import os, signal, sys
from influence_select import cli, influence
parent, setup = os.getpid(), influence.scoring_setup

def killed_in_a_child(*args):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return setup(*args)

influence.scoring_setup = killed_in_a_child
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_killed_setup_child_after_a_reference_pipe_is_an_error(workdir, tmp_path):
    """A setup child killed after it read a reference given as a pipe stops
    ``score`` at once with exit 2 and one line naming the child and its
    signal, and leaves no child: the setup does not run again here, where
    it would wait for the pipe forever. On one CPU there is no child, and
    ``score`` runs the setup itself."""
    root, cfg = workdir
    fifo = tmp_path / "reference.fifo"
    os.mkfifo(fifo)
    argv = [sys.executable, "-c", _SETUP_CHILD_KILLED, "score", "--config", str(cfg), "--ids", "0",
            "--set", f"paths.reference={fifo}", "--set", f"paths.output_dir={tmp_path / 'out'}"]
    write = "import sys; open(sys.argv[2], 'w').write(open(sys.argv[1]).read())"
    cpus = os.sched_getaffinity(0)
    for run_on in ({min(cpus)}, cpus) if len(cpus) > 1 else ({min(cpus)},):
        writer = subprocess.Popen([sys.executable, "-c", write, str(root / "reference.tsv"),
                                   str(fifo)])
        try:
            done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src")),
                                  capture_output=True, text=True, timeout=30,
                                  preexec_fn=lambda: os.sched_setaffinity(0, run_on))
        finally:
            writer.kill()
            writer.wait()
        if len(run_on) == 1:
            assert (done.returncode, done.stderr) == (0, "")
            continue
        child = int(done.stderr.split()[4])
        assert done.returncode == 2
        assert done.stderr == (f"data error: forked child {child} was killed by signal 9 "
                               f"({signal.strsignal(signal.SIGKILL)}) before it sent a result\n")
        assert not os.path.exists(f"/proc/{child}")


@pytest.mark.parametrize("case", ["child sends nothing", "fork fails", "another thread"])
@pytest.mark.parametrize("command", ["score", "select"])
def test_setup_falls_back_to_the_serial_path(selected_out, workdir, tmp_path, monkeypatch,
                                             capsys, command, case):
    """A failing ``os.fork``, or a live second thread, keeps the setup in this
    process from the start, and the outputs are the serial ones. A setup
    child that ends before it sends the iHVP stops the command with exit 2
    and one line naming the child and its exit status; the setup does not
    run again here, and the outputs keep their bytes. ``select`` sets up
    here and forks its scoring child after, so there the child that sends
    nothing is the scoring child, and the setup ran here once."""
    import threading

    from influence_select import forking, influence

    root, cfg = workdir
    out = tmp_path / "out"
    shutil.copytree(selected_out, out)
    code, _, serial, _ = _setup_run_on(1, command, cfg, out, monkeypatch, capsys)
    assert code == 0
    setup, set_up = influence.scoring_setup, []  # set_up: this process's setups

    def recording(*args):
        set_up.append(args)
        return setup(*args)

    monkeypatch.setattr(influence, "scoring_setup", recording)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    if case == "child sends nothing":
        monkeypatch.setattr(forking.pickle, "dump", lambda obj, fh, **kwargs: os._exit(1))
    elif case == "fork fails":
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
    else:
        other.start()
    try:
        code, err, files, pids = _setup_run_on(2, command, cfg, out, monkeypatch, capsys)
    finally:
        release.set()
        if other.is_alive():
            other.join(30)
    assert not other.is_alive()
    assert files == serial
    if case == "child sends nothing":
        assert len(pids) == 1 and len(set_up) == (command == "select")
        assert (code, err) == (
            2, f"data error: forked child {pids[0]} exited with status 1 before it sent a result\n")
    else:
        assert pids == [] and len(set_up) == 1 and code == 0


def test_score_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """At the default model shape a two-thread BLAS sums the curvature
    factors in another order; the program pins one thread, so ``score``
    writes the same bytes whatever thread count the caller sets."""
    data = generate(SyntheticSpec(
        n_instances=16, embed_dim=8, n_components=8, n_aligned=2, vocab_size=64,
        seq_len=24, n_reference=8, seed=5,
    ))
    write_embeddings(tmp_path / "embeddings.bin", data.embeddings)
    write_tokens(tmp_path / "tokens.tsv", data.instances)
    write_tokens(tmp_path / "reference.tsv", data.reference)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"paths.embeddings = {tmp_path}/embeddings.bin\n"
                   f"paths.tokens = {tmp_path}/tokens.tsv\n"
                   f"paths.reference = {tmp_path}/reference.tsv\n"
                   f"paths.output_dir = {tmp_path}/out\n")
    argv = [sys.executable, "-m", "influence_select", "score", "--config", str(cfg),
            "--ids", "0,1,2,3,4,5,6,7"]
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src"),
                   OPENBLAS_NUM_THREADS=threads)
        subprocess.run(argv, env=env, capture_output=True, check=True)
        written.append((tmp_path / "out" / "scores.csv").read_bytes())
    assert written[0] == written[1]


def test_report_replays_under_the_recorded_reward_mode(workdir, tmp_path):
    """``report`` credits the ledger's pulls as ``select`` did, whatever
    ``bandit.reward_mode`` the report itself is given."""
    root, cfg = workdir
    out = tmp_path / "out"
    args = ["--config", str(cfg), "--set", f"paths.output_dir={out}"]
    assert _run("cluster", *args) == 0
    assert _run("select", *args, "--set", "bandit.reward_mode=sum") == 0
    rows = {}
    for mode in ("sum", "mean"):
        assert _run("report", *args, "--set", f"bandit.reward_mode={mode}") == 0
        rows[mode] = (out / "report_trajectories.csv").read_text().splitlines()[1:]
    assert len(rows["sum"]) > 1
    assert rows["mean"] == rows["sum"]


_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TRACER = os.path.join(_REPO, "perfbench", "tracing.py")


def _traced(tmp_path, *argv, cpus=None):
    """Run one command under ``perfbench/tracing.py``, on the CPU set ``cpus``
    when given, require exit 0 and return the command's per-layer metrics."""
    spans_path = tmp_path / f"spans-{argv[0]}.json"
    done = subprocess.run([sys.executable, _TRACER, str(spans_path), *argv],
                          env=dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src")),
                          capture_output=True, text=True,
                          preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus))
    assert done.returncode == 0, done.stderr
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.command_metrics(json.loads(spans_path.read_text()), 0.0)


def test_tracer_installs_on_the_program(tmp_path):
    """``perfbench/tracing.py`` wraps every module and hook it looks up before
    the CLI parses its arguments, so ``--help`` fails if one is gone."""
    done = subprocess.run([sys.executable, _TRACER, str(tmp_path / "spans.json"), "--help"],
                          env=dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src")),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_traced_select_reads_the_engine_token_count(selected_out, workdir, tmp_path):
    """``perfbench/tracing.py`` runs ``select`` and reads ``model.tokens`` from the
    ``tokens`` argument of every ``model.forward`` call: the reference set once,
    then each distinct sampled id once (the bandit caches scores). The tracer
    keeps no span of a forked child, so every sampled id is counted on one
    CPU, where ``select`` scores them all itself; on more CPUs a child scores
    the second half of each scorer call, and the count is the reference
    set's and the first halves'."""
    from influence_select.corpus import load_tokens

    root, cfg = workdir
    out = tmp_path / "out"
    shutil.copytree(selected_out, out)
    args = ["select", "--config", str(cfg), "--set", f"paths.output_dir={out}"]
    cpus = os.sched_getaffinity(0)
    metrics = _traced(tmp_path, *args, cpus={min(cpus)})
    tokens = load_tokens(root / "tokens.tsv")
    length = dict(zip(tokens.ids.tolist(), tokens.lengths.tolist()))
    sampled = {i for line in (out / "ledger.jsonl").read_text().splitlines()
               for pull in json.loads(line).get("pulls", []) for i in pull["sampled_ids"]}
    reference = int(load_tokens(root / "reference.tsv").lengths.sum())
    assert metrics["model.tokens"] == reference + sum(length[i] for i in sampled)
    if len(cpus) > 1:
        here = [i for ids in _scorer_calls(out / "ledger.jsonl") for i in _halves(ids)[0]]
        assert _traced(tmp_path, *args)["model.tokens"] == reference + sum(length[i] for i in here)


def test_traced_cluster_score_report_read_their_attributes(selected_out, workdir, tmp_path):
    """The tracer reads ``kmeans(...).n_iters`` in ``cluster`` and ``train``'s ``cfg``
    in ``report``, which trains three baselines; ``score`` runs traced too, on
    one CPU, where it runs its setup itself.
    The tracer keeps no span of a forked child, so the three trainings are
    counted on one CPU, where ``report`` trains them all itself, and on more
    CPUs it counts ``selected`` alone, the one this process trains."""
    root, cfg = workdir
    out = tmp_path / "out"
    shutil.copytree(selected_out, out)
    args = ["--config", str(cfg), "--set", f"paths.output_dir={out}"]
    cluster = _traced(tmp_path, "cluster", *args)
    meta = json.loads((out / "clusters.bin.meta.json").read_text())
    assert cluster["clustering.iters"] == meta["iterations"]
    cpus = os.sched_getaffinity(0)
    _traced(tmp_path, "score", *args, "--ids", "0,5,10", cpus={min(cpus)})
    report = _traced(tmp_path, "report", *args, cpus={min(cpus)})
    assert report["trainer.steps"] == 3 * 8  # trainer.steps = 8 in the fixture's config
    if len(cpus) > 1:
        assert _traced(tmp_path, "report", *args)["trainer.steps"] == 8


# ------------------------------------------------------------ forked k-means

_CLUSTER_OUTPUTS = ("clusters.bin", "clusters.bin.meta.json")


@pytest.fixture(scope="module")
def split_pool(tmp_path_factory):
    """A 20000 x 64 blob pool, above ``clustering.SPLIT_MIN_ENTRIES``, and its
    config: at most 10 Lloyd passes, which the pruned passes reach."""
    from influence_select import clustering
    from influence_select.corpus import EmbeddingCorpus

    root = tmp_path_factory.mktemp("split-pool")
    rng = np.random.default_rng(71)
    x = rng.normal(0.0, 4.0, size=(64, 64))[rng.integers(0, 64, size=20_000)]
    x += rng.normal(0.0, 1.0, size=x.shape)
    assert x.size >= clustering.SPLIT_MIN_ENTRIES
    write_embeddings(root / "embeddings.bin", EmbeddingCorpus(vectors=x))
    cfg = root / "run.cfg"
    cfg.write_text(f"paths.embeddings = {root}/embeddings.bin\n"
                   "clustering.k = 64\nclustering.max_iters = 10\n")
    return root, cfg


def test_cluster_below_the_split_gate_forks_nothing(workdir, tmp_path, monkeypatch, capsys):
    root, cfg = workdir
    out = tmp_path / "out"
    argv = ["cluster", "--config", str(cfg), "--set", f"paths.output_dir={out}"]
    serial = _run_on(1, out, _CLUSTER_OUTPUTS, monkeypatch, capsys, *argv)
    two = _run_on(2, out, _CLUSTER_OUTPUTS, monkeypatch, capsys, *argv)
    assert serial[0] == two[0] == 0 and serial[3] == two[3] == []
    assert two[2] == serial[2]


def test_a_killed_kmeans_child_is_an_error(split_pool, tmp_path, monkeypatch, capsys):
    """A k-means child killed while it seeds stops ``cluster`` with exit 2 and
    one line naming it and its signal; it is reaped, and nothing is written."""
    from influence_select import clustering

    root, cfg = split_pool
    out = tmp_path / "out"
    parent, screen = os.getpid(), clustering._Screen.screen

    def killed_in_the_child(self, c, c_sq):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return screen(self, c, c_sq)

    monkeypatch.setattr(clustering._Screen, "screen", killed_in_the_child)
    code, err, files, pids = _run_on(2, out, _CLUSTER_OUTPUTS, monkeypatch, capsys, "cluster",
                                     "--config", str(cfg), "--set", f"paths.output_dir={out}")
    assert (code, err) == (2, f"data error: forked child {pids[0]} was killed by signal 9 "
                              f"({signal.strsignal(signal.SIGKILL)}) before it sent a result\n")
    assert len(pids) == 1 and files == dict.fromkeys(_CLUSTER_OUTPUTS)
