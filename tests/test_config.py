import re
from pathlib import Path

import pytest

from influence_select.config import _FIELD_TYPES, canonical_text, fingerprint, load_config
from influence_select.errors import UsageError

# keys whose one value in use became a constant; each is now unknown
_REMOVED_KEYS = {
    "bandit.tau_mode", "influence.layers", "model.rope_base", "trainer.beta1",
    "trainer.beta2", "trainer.eps", "sim.alpha", "sim.sigma", "sim.members_per_arm",
    "sim.best_mean", "sim.spread", "oracle.damping", "paths.embedding_format",
    "clustering.normalize", "clustering.tol",
}


def test_default_hyperparameters():
    cfg = load_config(None)
    assert cfg.bandit.alpha == 0.002
    assert cfg.bandit.tau == 0.0025
    assert cfg.bandit.gamma == 0.05
    assert cfg.influence.sketch_dim == 256
    assert cfg.clustering.k == 64


def test_file_parsing_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "clustering.k = 12   # trailing comment\n"
        "bandit.tau = 0.5\n"
        "paths.output_dir = /tmp/x\n"
        "influence.use_sketch = true\n"
    )
    cfg = load_config(path)
    assert cfg.clustering.k == 12
    assert cfg.bandit.tau == 0.5
    assert cfg.paths.output_dir == "/tmp/x"
    assert cfg.influence.use_sketch is True


def test_flag_overrides_win(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("clustering.k = 12\n")
    cfg = load_config(path, overrides=["clustering.k=99"])
    assert cfg.clustering.k == 99


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(UsageError, match="unknown config section"):
        load_config(None, overrides=["nosuch.key=1"])
    with pytest.raises(UsageError, match="unknown config key"):
        load_config(None, overrides=["bandit.nosuch=1"])
    with pytest.raises(UsageError, match="section.field"):
        load_config(None, overrides=["workers_oops=1"])
    with pytest.raises(UsageError, match="section.field"):
        load_config(None, overrides=["workers=4"])  # the thread-pool key is gone


def test_type_errors_rejected():
    with pytest.raises(UsageError, match="integer"):
        load_config(None, overrides=["clustering.k=twelve"])
    with pytest.raises(UsageError, match="boolean"):
        load_config(None, overrides=["influence.use_sketch=maybe"])


def test_validation_reruns_after_overrides():
    with pytest.raises(UsageError, match="gamma"):
        load_config(None, overrides=["bandit.gamma=1.5"])


def test_fingerprint_stable_and_sensitive(tmp_path):
    a = load_config(None)
    b = load_config(None)
    assert fingerprint(a) == fingerprint(b)
    c = load_config(None, overrides=["bandit.tau=0.9"])
    assert fingerprint(c) != fingerprint(a)
    assert "bandit.tau = 0.9" in canonical_text(c)


def _readme_config_keys() -> set[str]:
    """Keys named in the README's Configuration list: a bullet names a key
    as `section.key`, then the same section's further keys as `.key`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    body = readme.split("### Configuration\n", 1)[1].split("\n### ", 1)[0]
    bullets = re.search(r"^- .*?(?=\n\n)", body, re.S | re.M).group(0)
    keys, section = set(), None
    for prefix, name in re.findall(r"`([a-z_]*)\.([a-z_0-9]+)`", bullets):
        if prefix:
            if prefix not in {sec for sec, _ in _FIELD_TYPES}:
                continue  # a default file name such as `tokens.tsv`
            section = prefix
        keys.add(f"{section}.{name}")
    return keys


def test_readme_lists_exactly_the_config_keys():
    text = canonical_text(load_config(None))
    assert _readme_config_keys() == {line.split(" = ")[0] for line in text.splitlines()}


def test_canonical_text_includes_all_sections():
    text = canonical_text(load_config(None))
    for key in ("paths.embeddings", "clustering.k", "bandit.alpha", "model.hidden_dim",
                "trainer.learning_rate", "sim.arms", "influence.damping"):
        assert key in text


@pytest.mark.parametrize("override, key", [
    ("influence.damping=-1", "influence.damping"),
    ("influence.damping=nan", "influence.damping"),
    ("influence.sketch_dim=0", "influence.sketch_dim"),
    ("influence.sketch_dim=-3", "influence.sketch_dim"),
    # all four layer kinds are always tracked: the key is unknown at any value
    ("influence.layers=foo", "influence.layers"),
    ("influence.layers=qkv-joint,mlp-3", "influence.layers"),
    ("influence.layers= , ", "influence.layers"),
])
def test_influence_section_validated_at_load(override, key):
    with pytest.raises(UsageError, match=key):
        load_config(None, overrides=[override])


@pytest.mark.parametrize("override", ["influence.layers=foo", "influence.sketch_dim=0",
                                      "influence.sketch_dim=-3", "influence.damping=-1",
                                      # values that do not parse as the key's type
                                      "influence.sketch_dim=", "influence.damping=abc",
                                      "influence.use_sketch=maybe"])
def test_bad_influence_value_exits_1_without_traceback(override, tmp_path, capsys):
    from influence_select import cli

    code = cli.main(["score", "--ids", "0", "--set", override,
                     "--set", f"paths.output_dir={tmp_path}"])
    err = capsys.readouterr().err
    assert code == 1
    assert override.split("=")[0] in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("override, key", [
    ("model.n_layers=0", "model.n_layers"),
    ("model.hidden_dim=0", "model.hidden_dim"),
    ("model.n_heads=0", "model.n_heads"),
    ("model.n_heads=5", "model.n_heads"),
    ("model.n_heads=64", "model.hidden_dim / model.n_heads"),
    ("model.max_context=1", "model.max_context"),
    ("model.vocab_size=0", "model.vocab_size"),
    ("model.mlp_ratio=0", "model.mlp_ratio"),
    ("model.mlp_ratio=nan", "model.mlp_ratio"),
    ("clustering.k=0", "clustering.k"),
    ("clustering.max_iters=0", "clustering.max_iters"),
    ("clustering.tol=-1e-9", "clustering.tol"),
    ("clustering.tol=nan", "clustering.tol"),
    ("selection.budget=-1", "selection.budget"),
    ("trainer.learning_rate=-1", "trainer.learning_rate"),
    ("trainer.learning_rate=nan", "trainer.learning_rate"),
    ("trainer.batch_size=0", "trainer.batch_size"),
    ("trainer.steps=-1", "trainer.steps"),
    ("bandit.top_k=0", "bandit.top_k"),
    ("bandit.batch_size=0", "bandit.batch_size"),
    ("paths.embedding_format=xml", "paths.embedding_format"),
    # constants now: these keys are unknown at any value
    ("model.rope_base=0", "model.rope_base"),
    ("trainer.beta1=1", "trainer.beta1"),
    ("trainer.beta2=0", "trainer.beta2"),
    ("trainer.eps=0", "trainer.eps"),
    # values that do not parse as the key's type
    ("clustering.k=", "clustering.k: cannot parse integer from ''"),
    ("bandit.alpha=fast", "bandit.alpha: cannot parse float from 'fast'"),
    ("influence.use_sketch=2", "influence.use_sketch: cannot parse boolean from '2'"),
])
def test_remaining_sections_validated_at_load(override, key):
    with pytest.raises(UsageError, match=key.replace(".", r"\.")):
        load_config(None, overrides=[override])


def test_sketch_dim_bounded_by_smallest_tracked_layer(tmp_path, capsys):
    """With the sketch on, ``sketch_dim`` may not exceed the smallest tracked
    layer's size, ``hidden_dim * min(hidden_dim, mlp_hidden)``: here 8 * 4."""
    from influence_select import cli

    small = ["model.hidden_dim=8", "model.n_heads=2", "model.mlp_ratio=0.5"]
    sketch = [*small, "influence.use_sketch=true"]
    load_config(None, overrides=[*sketch, "influence.sketch_dim=32"])
    load_config(None, overrides=[*small, "influence.sketch_dim=33"])  # unsketched: no bound
    argv = ["score", "--ids", "0", "--set", "influence.sketch_dim=33",
            "--set", f"paths.output_dir={tmp_path}"]
    for item in sketch:
        argv += ["--set", item]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("usage error: influence.sketch_dim must be <= 32")
    assert list(tmp_path.iterdir()) == []


def test_section_boundary_values_accepted():
    cfg = load_config(None, overrides=[
        "model.n_layers=1", "model.hidden_dim=2", "model.n_heads=1", "model.max_context=2",
        "model.vocab_size=1", "clustering.k=1", "clustering.max_iters=1",
        "selection.budget=0", "trainer.learning_rate=0", "trainer.steps=0",
        "trainer.batch_size=1", "influence.damping=0", "influence.sketch_dim=1",
    ])
    assert cfg.model.head_dim == 2
    assert cfg.selection.budget == 0


@pytest.mark.parametrize("command, override", [
    ("select", "model.n_layers=0"),
    ("select", "model.n_heads=5"),
    ("cluster", "clustering.k=0"),
    ("cluster", "clustering.max_iters=0"),
    ("select", "selection.budget=-1"),
    ("report", "trainer.steps=-1"),
    ("cluster", "paths.embedding_format=xml"),
    # trainer.eps is the constant trainer.ADAM_EPS: the key is unknown
    ("report", "trainer.eps=0"),
])
def test_bad_section_value_exits_1_without_traceback(command, override, tmp_path, capsys):
    from influence_select import cli

    key = override.split("=")[0]
    code = cli.main([command, "--set", override, "--set", f"paths.output_dir={tmp_path}"])
    err = capsys.readouterr().err
    assert code == 1
    if key in _REMOVED_KEYS:
        assert err == f"usage error: unknown config key {key}\n"
    else:
        assert err.startswith(f"usage error: {key} ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("override, key", [
    ("sim.arms=0", "sim.arms"),
    ("sim.steps=-1", "sim.steps"),
    ("sim.steps=0", "sim.steps"),
    ("sim.trials=0", "sim.trials"),
    ("oracle.candidates=0", "oracle.candidates"),
    ("oracle.candidates=29", "oracle.candidates"),
    # the simulation's arm shape, the QKV study's damping and the gradient
    # check's model are fixed: these keys are unknown at any value
    ("sim.members_per_arm=0", "sim.members_per_arm"),
    ("sim.sigma=-1", "sim.sigma"),
    ("sim.sigma=nan", "sim.sigma"),
    ("oracle.damping=-1", "oracle.damping"),
    ("oracle.damping=nan", "oracle.damping"),
    ("oracle.vocab_size=0", "oracle.vocab_size"),
    ("oracle.hidden_dim=0", "oracle.hidden_dim"),
    ("oracle.n_layers=0", "oracle.n_layers"),
    ("oracle.n_heads=0", "oracle.n_heads"),
    ("oracle.n_heads=5", "oracle.n_heads"),
    ("oracle.seq_len=1", "oracle.seq_len"),
])
def test_sim_and_oracle_sections_validated_at_load(override, key):
    with pytest.raises(UsageError, match=key.replace(".", r"\.")):
        load_config(None, overrides=[override])


def test_sim_and_oracle_boundary_values_accepted():
    cfg = load_config(None, overrides=[
        "sim.arms=1", "sim.steps=1", "sim.trials=1", "oracle.candidates=30",
    ])
    assert cfg.sim.arms == 1
    assert cfg.oracle.candidates == 30


@pytest.mark.parametrize("command, override", [
    ("simulate-bandit", "sim.steps=-1"),
    ("simulate-bandit", "sim.arms=0"),
    ("simulate-bandit", "sim.trials=0"),
    ("oracle-check", "oracle.candidates=5"),
])
def test_bad_sim_or_oracle_value_exits_1_without_traceback(command, override, tmp_path, capsys):
    from influence_select import cli

    code = cli.main([command, "--set", override, "--set", f"paths.output_dir={tmp_path}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"usage error: {override.split('=')[0]} ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("override", [
    "oracle.vocab_size=13", "oracle.hidden_dim=12", "oracle.n_layers=1", "oracle.n_heads=2",
    "oracle.seq_len=8",
])
def test_removed_oracle_shape_keys_exit_1(override, tmp_path, capsys):
    """The gradient check's model is a constant; its former keys are unknown
    even at their former default values."""
    from influence_select import cli

    code = cli.main(["oracle-check", "--set", override, "--set", f"paths.output_dir={tmp_path}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"usage error: unknown config key {override.split('=')[0]}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, override", [
    ("select", "bandit.tau_mode=cluster"),
    ("select", "influence.layers=qkv-joint,attn-out,mlp-1,mlp-2"),
    ("select", "model.rope_base=10000"),
    ("report", "trainer.beta1=0.9"),
    ("report", "trainer.beta2=0.95"),
    ("report", "trainer.eps=1e-8"),
    ("simulate-bandit", "sim.alpha=1"),
    ("simulate-bandit", "sim.sigma=1"),
    ("simulate-bandit", "sim.members_per_arm=400"),
    ("simulate-bandit", "sim.best_mean=2.5"),
    ("simulate-bandit", "sim.spread=1.8"),
    ("oracle-check", "oracle.damping=1e-3"),
    ("cluster", "paths.embedding_format=binary"),
    ("cluster", "clustering.normalize=false"),
    ("cluster", "clustering.tol=0"),
])
def test_removed_key_exits_1(command, override, tmp_path, capsys):
    """Keys whose one value in use became a constant are unknown, even at
    that value."""
    from influence_select import cli

    key = override.split("=")[0]
    assert key in _REMOVED_KEYS and tuple(key.split(".")) not in _FIELD_TYPES
    code = cli.main([command, "--set", override, "--set", f"paths.output_dir={tmp_path}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"usage error: unknown config key {key}\n"
    assert list(tmp_path.iterdir()) == []


def test_array_beyond_memory_exits_1_with_one_line(tmp_path, capsys):
    """numpy refuses an allocation this far beyond the address space before
    it touches memory; the value is never one near the machine's RAM."""
    from influence_select import cli

    code = cli.main(["simulate-bandit", "--set", "sim.arms=100000000000000",
                     "--set", f"paths.output_dir={tmp_path}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("usage error: out of memory: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("override, key", [
    ("bandit.alpha=nan", "bandit.alpha"),
    ("bandit.alpha=inf", "bandit.alpha"),
    ("bandit.tau=inf", "bandit.tau"),
    ("bandit.tau=-inf", "bandit.tau"),
    ("bandit.max_rounds=0", "bandit.max_rounds"),
    ("bandit.max_rounds=-1", "bandit.max_rounds"),
])
def test_bandit_bounds_validated_at_load(override, key):
    with pytest.raises(UsageError, match=key.replace(".", r"\.")):
        load_config(None, overrides=[override])


def test_bandit_boundary_values_accepted():
    cfg = load_config(None, overrides=["bandit.max_rounds=1", "bandit.alpha=0", "bandit.tau=-1"])
    assert cfg.bandit.max_rounds == 1


@pytest.mark.parametrize("override", ["bandit.alpha=nan", "bandit.tau=inf", "bandit.max_rounds=-1"])
def test_bad_bandit_value_exits_1_without_traceback(override, tmp_path, capsys):
    from influence_select import cli

    code = cli.main(["select", "--set", override, "--set", f"paths.output_dir={tmp_path}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"usage error: {override.split('=')[0]} ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


_FLOAT_KEYS = sorted(f"{sec}.{name}" for (sec, name), typ in _FIELD_TYPES.items() if typ is float)
# float keys whose value is now a constant: any value of theirs, finite or
# not, is rejected as an unknown key
_FORMER_FLOAT_KEYS = [
    "clustering.tol", "model.rope_base", "oracle.damping", "sim.alpha", "sim.best_mean",
    "sim.sigma", "sim.spread", "trainer.beta1", "trainer.beta2", "trainer.eps",
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(_FLOAT_KEYS + _FORMER_FLOAT_KEYS))
def test_every_float_key_must_be_finite(key, value, tmp_path, capsys):
    from influence_select import cli

    code = cli.main(["cluster", "--set", f"{key}={value}", "--set", f"paths.output_dir={tmp_path}"])
    err = capsys.readouterr().err
    assert code == 1
    if key in _FORMER_FLOAT_KEYS:
        assert key in _REMOVED_KEYS
        assert err == f"usage error: unknown config key {key}\n"
    else:
        assert err.startswith(f"usage error: {key} must be finite")
    assert list(tmp_path.iterdir()) == []


_SEED_KEYS = sorted(f"{sec}.{name}" for sec, name in _FIELD_TYPES if name.endswith("seed"))


@pytest.mark.parametrize("key", _SEED_KEYS)
def test_every_seed_key_must_be_non_negative(key, tmp_path, capsys):
    from influence_select import cli

    assert len(_SEED_KEYS) == 8
    code = cli.main(["cluster", "--set", f"{key}=-1", "--set", f"paths.output_dir={tmp_path}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"usage error: {key} must be >= 0, got -1")
    assert list(tmp_path.iterdir()) == []
