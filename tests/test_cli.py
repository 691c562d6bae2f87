"""End-to-end command-line pipeline on miniature workloads."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from qaoabench import bench, cli
from qaoabench.bench import read_records
from qaoabench.cli import load_config, main, read_sstar
from qaoabench.errors import ConfigError, DomainError
from qaoabench.graphs import instance_id
from qaoabench.kde import kde_load
from qaoabench.rl import load_policy
from qaoabench.seeding import STREAM_VERSION


def write(path, text):
    path.write_text(text)
    return str(path)


# --- config files ------------------------------------------------------------

def test_load_config_empty_and_comments(tmp_path):
    path = tmp_path / "a.cfg"
    assert load_config(write(path, "")) == {}
    text = "# full-line comment\n\nseed = 5   # trailing\nshots=64\n"
    assert load_config(write(path, text)) == {"seed": 5, "shots": 64}


def test_load_config_strings_stay_strings(tmp_path):
    path = write(tmp_path / "a.cfg", "roster = nm,kde\ndepths = 1,4\n")
    assert load_config(path) == {"roster": "nm,kde", "depths": "1,4"}


def test_load_config_reports_all_problems(tmp_path):
    path = write(tmp_path / "bad.cfg",
                 "flux = 3\nbudget = soon\nnonsense\nattempts = 0\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msg = str(err.value)
    assert "line 1" in msg and "flux" in msg
    assert "line 2" in msg and "int" in msg
    assert "line 3" in msg and "key=value" in msg
    assert "line 4" in msg and ">= 1" in msg


def test_load_config_seed_zero_ok_negative_not(tmp_path):
    path = tmp_path / "a.cfg"
    assert load_config(write(path, "seed = 0\n")) == {"seed": 0}
    with pytest.raises(ConfigError):
        load_config(write(path, "seed = -1\n"))


# --- argument parsing --------------------------------------------------------

def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_out_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--suite", "train"])
    assert exc.value.code == 2


# --- gen ----------------------------------------------------------------------

def test_gen_train_suite(tmp_path, train_set):
    out = tmp_path / "gen"
    assert main(["gen", "--suite", "train", "--out", str(out)]) == 0
    payload = json.loads((out / "suite.json").read_text())
    assert payload["schema"] == "qaoabench-suite-v1"
    assert len(payload["instances"]) == len(train_set) == 7
    ids = [e["id"] for e in payload["instances"]]
    assert ids == [instance_id(spec) for spec, _ in train_set]
    for entry, (_, g) in zip(payload["instances"], train_set):
        assert entry["n"] == g.n
        assert len(entry["edges"]) == len(g.edges)


def test_gen_test_suite_and_determinism(tmp_path, test_set):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--suite", "test", "--out", str(a)]) == 0
    assert main(["gen", "--suite", "test", "--out", str(b)]) == 0
    assert (a / "suite.json").read_bytes() == (b / "suite.json").read_bytes()
    payload = json.loads((a / "suite.json").read_text())
    assert len(payload["instances"]) == len(test_set) == 94


def test_manifest_hashes_outputs(tmp_path):
    out = tmp_path / "gen"
    main(["gen", "--suite", "train", "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"] == "qaoabench-manifest-v1"
    assert manifest["command"] == "gen"
    digest = hashlib.sha256((out / "suite.json").read_bytes()).hexdigest()
    assert manifest["outputs"]["suite.json"] == digest


def test_manifest_records_stream_version(tmp_path):
    out = tmp_path / "gen"
    assert main(["gen", "--suite", "train", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stream_version"] == STREAM_VERSION


# --- landscape ----------------------------------------------------------------

def test_landscape_csv(tmp_path, train_set):
    iid = instance_id(train_set[0][0])
    out = tmp_path / "l"
    rc = main(["landscape", "--instance", iid, "--resolution", "8",
               "--exact", "--out", str(out)])
    assert rc == 0
    lines = (out / "landscape.csv").read_text().splitlines()
    assert lines[0] == "# qaoabench-landscape-v1"
    assert lines[1] == "beta,gamma,mean,stderr"
    assert len(lines) == 2 + 64
    beta, gamma, mean, stderr = lines[2].split(",")
    assert float(mean) >= 0.0 and float(stderr) == 0.0


def test_landscape_deterministic(tmp_path, train_set):
    iid = instance_id(train_set[0][0])
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["landscape", "--instance", iid, "--resolution", "4",
                     "--shots", "128", "--seed", "3", "--out", str(out)]) == 0
    assert (a / "landscape.csv").read_bytes() == \
        (b / "landscape.csv").read_bytes()


def test_landscape_bad_instance_exits_one(tmp_path, capsys):
    rc = main(["landscape", "--instance", "no-such-graph", "--out",
               str(tmp_path / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# --- model building and benchmarking -----------------------------------------

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """build-sstar -> build-kde -> train-rl -> bench, all miniature."""
    root = tmp_path_factory.mktemp("pipeline")
    assert main(["build-sstar", "--suite", "train", "--p", "1",
                 "--starts", "3", "--seed", "0",
                 "--out", str(root / "sstar")]) == 0
    assert main(["build-kde", "--sstar", str(root / "sstar" / "sstar-p1.json"),
                 "--out", str(root / "kde")]) == 0
    assert main(["train-rl", "--p", "1", "--epochs", "1", "--episodes", "2",
                 "--steps", "4", "--probe", "5", "--seed", "0",
                 "--out", str(root / "rl")]) == 0
    bench_args = ["bench", "--suite", "train", "--p", "1",
                  "--roster", "random,nm,kde,rl", "--budget", "16",
                  "--attempts", "1", "--shots", "64", "--seed", "1",
                  "--kde", str(root / "kde" / "kde-p1.json"),
                  "--policy", str(root / "rl" / "policy-p1.json"),
                  "--out", str(root / "bench")]
    assert main(bench_args) == 0
    return root, bench_args


def test_sstar_file_readable(pipeline):
    root, _ = pipeline
    p, pooled = read_sstar(root / "sstar" / "sstar-p1.json")
    assert p == 1
    assert len(pooled) >= 7      # at least one admitted point per instance
    assert all(len(vec) == 2 for vec in pooled)


def test_kde_file_loadable(pipeline):
    root, _ = pipeline
    model = kde_load(root / "kde" / "kde-p1.json")
    assert model.depth == 1
    assert model.bandwidth > 0


def test_policy_and_curve_written(pipeline):
    root, _ = pipeline
    bundle = load_policy(root / "rl" / "policy-p1.json")
    assert bundle.depth == 1
    lines = (root / "rl" / "curve-p1.csv").read_text().splitlines()
    assert lines[0] == "# qaoabench-curve-v1"
    assert lines[1] == "epoch,mean_discounted_reward"
    assert len(lines) == 3       # one epoch
    epoch, value = lines[2].split(",")
    assert epoch == "0" and isinstance(float(value), float)


def test_bench_records_complete(pipeline, train_set):
    root, _ = pipeline
    records = read_records(root / "bench" / "records.csv")
    assert len(records) == len(train_set) * 4    # 1 depth x 4 roster x 1 try
    assert all(r.evals_used <= 16 for r in records)
    assert {r.optimizer for r in records} == {"random", "nm", "kde", "rl"}
    metrics = json.loads((root / "bench" / "metrics.json").read_text())
    assert metrics["schema"] == "qaoabench-metrics-v1"
    assert metrics["tau"] and metrics["eta"]


def test_bench_rerun_is_hash_identical(pipeline):
    root, bench_args = pipeline
    rerun = [a if a != str(root / "bench") else str(root / "bench2")
             for a in bench_args]
    assert main(rerun) == 0
    for name in ("records.csv", "tau_long.csv", "metrics.json"):
        assert (root / "bench" / name).read_bytes() == \
            (root / "bench2" / name).read_bytes()


def test_report_recomputes_bench_metrics(pipeline, tmp_path):
    root, _ = pipeline
    out = tmp_path / "report"
    rc = main(["report", "--records", str(root / "bench" / "records.csv"),
               "--out", str(out)])
    assert rc == 0
    assert (out / "metrics.json").read_bytes() == \
        (root / "bench" / "metrics.json").read_bytes()
    assert (out / "records.csv").read_bytes() == \
        (root / "bench" / "records.csv").read_bytes()


def test_report_json_only(pipeline, tmp_path):
    root, _ = pipeline
    out = tmp_path / "only"
    rc = main(["report", "--records", str(root / "bench" / "records.csv"),
               "--format", "json", "--out", str(out)])
    assert rc == 0
    assert (out / "metrics.json").exists()
    assert not (out / "records.csv").exists()


def test_report_missing_records_exits_one(tmp_path, capsys):
    rc = main(["report", "--records", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bench_learned_without_model_exits_one(tmp_path, capsys):
    rc = main(["bench", "--suite", "train", "--p", "1", "--roster", "nm,kde",
               "--budget", "8", "--attempts", "1", "--shots", "16",
               "--out", str(tmp_path / "b")])
    assert rc == 1
    assert "no model for p=1" in capsys.readouterr().err


def test_bench_roster_without_nm_fails_before_any_cell(tmp_path, capsys,
                                                        monkeypatch):
    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(bench, "_run_cell", no_cell)
    out = tmp_path / "b"
    rc = main(["bench", "--suite", "test", "--p", "1", "--roster", "random",
               "--max-n", "6", "--exact", "--out", str(out)])
    assert rc == 1
    assert "roster ['random'] has no 'nm'" in capsys.readouterr().err
    assert not (out / "records.csv").exists()


def test_build_kde_rejects_wrong_schema(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"schema": "other", "entries": []}\n')
    rc = main(["build-kde", "--sstar", str(bogus),
               "--out", str(tmp_path / "k")])
    assert rc == 1
    assert "unexpected schema" in capsys.readouterr().err


@pytest.mark.parametrize("flag,text", [
    ("--kde", '{"p": 1}\n'),
    ("--kde", '{"schema": "qaoabench-kde-v1", "p": 1}\n'),
    ("--kde", "centers = [[0.1, 0.2]]\n"),
    ("--policy", '{"p": 1}\n'),
    ("--policy", '{"schema": "qaoabench-policy-v1", "p": 1}\n'),
])
def test_bench_rejects_malformed_model_files(tmp_path, capsys, flag, text):
    path = write(tmp_path / "model.json", text)
    rc = main(["bench", "--suite", "train", "--p", "1", flag, path,
               "--out", str(tmp_path / "b")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model.json" in err


# pipeline file -> the schema id it carries, the loader of its kind (if the
# pipeline reads that kind back) and the bench flag that takes it
ARTIFACTS = {
    "sstar/sstar-p1.json": ("qaoabench-sstar-v1", read_sstar, None),
    "kde/kde-p1.json": ("qaoabench-kde-v1", kde_load, "--kde"),
    "rl/policy-p1.json": ("qaoabench-policy-v1", load_policy, "--policy"),
    "rl/curve-p1.csv": ("qaoabench-curve-v1", None, None),
    "bench/records.csv": ("qaoabench-records-v1", read_records, None),
    "bench/tau_long.csv": ("qaoabench-tau-v1", None, None),
    "bench/metrics.json": ("qaoabench-metrics-v1", None, None),
}
ARTIFACTS.update({f"{d}/manifest.json": ("qaoabench-manifest-v1", None, None)
                  for d in ("sstar", "kde", "rl", "bench")})
LOADERS = [loader for _, loader, _ in ARTIFACTS.values() if loader]


@pytest.mark.parametrize("rel", sorted(ARTIFACTS))
def test_artifact_schema_ids(pipeline, tmp_path, capsys, rel):
    root, _ = pipeline
    for d in ("sstar", "kde", "rl", "bench"):
        assert {f"{d}/{f.name}" for f in (root / d).iterdir()} <= \
            set(ARTIFACTS)
    schema, own, flag = ARTIFACTS[rel]
    path = root / rel
    if path.suffix == ".csv":
        assert path.read_text().splitlines()[0] == f"# {schema}"
    else:
        assert json.loads(path.read_text())["schema"] == schema
    if own:
        own(path)
    for loader in LOADERS:
        if loader is not own:
            with pytest.raises(ConfigError, match=path.name):
                loader(path)
    if flag:
        wrong = "--policy" if flag == "--kde" else "--kde"
        rc = main(["bench", "--suite", "train", "--p", "1", wrong, str(path),
                   "--out", str(tmp_path / "b")])
        assert rc == 1
        assert "unexpected schema" in capsys.readouterr().err


def test_bench_max_n_keeps_only_instances_up_to_it(tmp_path, test_set):
    out = tmp_path / "b"
    assert main(["bench", "--suite", "test", "--p", "1",
                 "--roster", "random,nm", "--budget", "8", "--attempts", "1",
                 "--exact", "--max-n", "6", "--out", str(out)]) == 0
    kept = {instance_id(spec) for spec, g in test_set if g.n <= 6}
    assert 0 < len(kept) < len(test_set)
    assert {r.instance for r in read_records(out / "records.csv")} == kept
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["eta"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["max_n"] == 6


def test_build_kde_rejects_non_json_sstar(tmp_path, capsys):
    path = write(tmp_path / "sstar.json", "not json\n")
    rc = main(["build-kde", "--sstar", path, "--out", str(tmp_path / "k")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sstar.json" in err


@pytest.mark.parametrize("text", [
    "instance,group\nR-n8,small\n",
    "# qaoabench-records-v1\ninstance,group,p\nR-n8,small,1\n",
])
def test_report_rejects_a_file_that_is_not_records(tmp_path, capsys, text):
    path = write(tmp_path / "records.csv", text)
    out = tmp_path / "r"
    rc = main(["report", "--records", path, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "records.csv" in err
    assert not out.exists()


def test_bad_config_exits_one(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", "warp = 9\n")
    rc = main(["gen", "--suite", "train", "--config", cfg,
               "--out", str(tmp_path / "g")])
    assert rc == 1
    assert "unknown key" in capsys.readouterr().err


def test_flag_overrides_config(tmp_path, train_set):
    iid = instance_id(train_set[0][0])
    cfg = write(tmp_path / "c.cfg", "resolution = 4\n")
    out = tmp_path / "flag"
    main(["landscape", "--instance", iid, "--config", cfg, "--resolution",
          "8", "--exact", "--out", str(out)])
    assert len((out / "landscape.csv").read_text().splitlines()) == 2 + 64
    out2 = tmp_path / "cfg"
    main(["landscape", "--instance", iid, "--config", cfg, "--exact",
          "--out", str(out2)])
    assert len((out2 / "landscape.csv").read_text().splitlines()) == 2 + 16


def test_config_depths_honored(tmp_path):
    cfg = write(tmp_path / "c.cfg", "depths = 1\nstarts = 2\n")
    out = tmp_path / "s"
    assert main(["build-sstar", "--suite", "train", "--config", cfg,
                 "--seed", "0", "--out", str(out)]) == 0
    assert (out / "sstar-p1.json").exists()
    assert not (out / "sstar-p2.json").exists()
    assert not (out / "sstar-p4.json").exists()


def test_config_depths_sets_the_train_rl_depth(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "depths = 2\nepochs = 1\nepisodes = 2\n"
                                    "steps = 4\nprobe = 5\n")
    out = tmp_path / "rl"
    assert main(["train-rl", "--config", cfg, "--seed", "0",
                 "--out", str(out)]) == 0
    assert load_policy(out / "policy-p2.json").depth == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["p"] == 2
    # the flag still overrides the file, and one run trains one depth
    assert main(["train-rl", "--config", cfg, "--p", "1",
                 "--out", str(out)]) == 0
    assert (out / "policy-p1.json").exists()
    several = write(tmp_path / "d.cfg", "depths = 1,2\n")
    assert main(["train-rl", "--config", several, "--out", str(out)]) == 1
    assert "one depth" in capsys.readouterr().err


def test_bench_keeps_records_when_metrics_fail(tmp_path, capsys, monkeypatch):
    def broken(records, cut_values):
        raise DomainError("metrics failed")

    monkeypatch.setattr(cli, "compute_metrics", broken)
    out = tmp_path / "b"
    rc = main(["bench", "--suite", "test", "--p", "1", "--roster", "random,nm",
               "--budget", "8", "--attempts", "1", "--exact", "--max-n", "6",
               "--out", str(out)])
    assert rc == 1
    assert "metrics failed" in capsys.readouterr().err
    records = read_records(out / "records.csv")
    assert {r.optimizer for r in records} == {"random", "nm"}
    assert not (out / "metrics.json").exists()


def test_config_bandwidth_below_one_fits_that_bandwidth(pipeline, tmp_path):
    root, _ = pipeline
    cfg = write(tmp_path / "c.cfg", "bandwidth = 0.3\n")
    out = tmp_path / "kde"
    assert main(["build-kde", "--config", cfg, "--sstar",
                 str(root / "sstar" / "sstar-p1.json"),
                 "--out", str(out)]) == 0
    assert kde_load(out / "kde-p1.json").bandwidth == 0.3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["bandwidth"] == 0.3


# stages small enough to finish should a bad value ever be let through
TINY_BENCH = ["bench", "--suite", "train", "--p", "1", "--roster", "random,nm",
              "--budget", "8", "--attempts", "1", "--exact"]
TINY_LANDSCAPE = ["landscape", "--instance", "L-n3", "--exact"]


@pytest.mark.parametrize("stage,key,value,reason", [
    (TINY_BENCH, "seed", "-1", "seed must be >= 0"),
    (TINY_BENCH, "threads", "0", "threads must be >= 1"),
    (TINY_BENCH, "budget", "soon", "budget expects int, got 'soon'"),
    (TINY_LANDSCAPE, "resolution", "1", "resolution must be >= 2"),
])
def test_flag_and_config_values_get_one_check(tmp_path, capsys, stage, key,
                                              value, reason):
    flag = "--" + key
    assert main(stage + [flag, value, "--out", str(tmp_path / "f")]) == 1
    flag_err = capsys.readouterr().err.strip()
    cfg = write(tmp_path / "c.cfg", f"{key} = {value}\n")
    assert main(stage + ["--config", cfg, "--out", str(tmp_path / "c")]) == 1
    config_err = capsys.readouterr().err.strip()
    assert flag_err == f"error: invalid flags: {flag}: {reason}"
    assert config_err == f"error: invalid config: line 1: {reason}"
    assert not (tmp_path / "f").exists() and not (tmp_path / "c").exists()


def test_bad_depths_exit_one_from_flag_or_config(tmp_path, capsys):
    out = str(tmp_path / "s")
    assert main(["build-sstar", "--p", "1,x", "--starts", "1",
                 "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid flags: --p: depths must be")
    assert "'1,x'" in err and "Traceback" not in err
    cfg = write(tmp_path / "c.cfg", "depths = 1,y\n")
    assert main(["build-sstar", "--config", cfg, "--starts", "1",
                 "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: line 1: depths must be")
    assert "'1,y'" in err and "Traceback" not in err


def test_train_rl_flag_with_two_depths_exits_one(tmp_path, capsys):
    assert main(["train-rl", "--p", "1,2", "--out", str(tmp_path / "rl")]) == 1
    assert "train-rl trains one depth, got [1, 2]" in capsys.readouterr().err


def test_bad_suite_exits_one_from_flag_or_config(tmp_path, capsys):
    assert main(["gen", "--suite", "tset", "--out", str(tmp_path / "g")]) == 1
    flag_err = capsys.readouterr().err
    cfg = write(tmp_path / "c.cfg", "suite = tset\n")
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "g")]) == 1
    config_err = capsys.readouterr().err
    reason = "suite must be 'train' or 'test', got 'tset'"
    assert flag_err.strip().endswith(reason)
    assert config_err.strip().endswith(reason)


def test_artifact_digest_tool_passes(capsys):
    tool = Path(__file__).resolve().parent.parent / "tools" / \
        "artifact_digest.py"
    spec = importlib.util.spec_from_file_location("artifact_digest", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main_digest() == 0
    assert "\ncombined " in capsys.readouterr().out
