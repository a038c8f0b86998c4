import json
import subprocess
import sys

import numpy as np
import pytest

from dspn.cli import main
from dspn.data import load_dataset, load_model, save_dataset, save_graph, \
    save_model
from dspn.dynamic import DspnModel, dataset_logliks, derive_bottom, unroll
from dspn.structure import build_initial_template, build_top
from helpers import random_valid_spn


@pytest.fixture()
def workdir(tmp_path, capsys):
    return tmp_path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def small_model(seed=0, n=1, k=2):
    rng = np.random.default_rng(seed)
    arities = tuple([2] * n)
    univ = [[rng.dirichlet(np.full(2, 2.0)) for _ in range(n)] for _ in range(k)]
    mix = [rng.dirichlet(np.full(k, 2.0)) for _ in range(k)]
    t = build_initial_template(n, arities, k, univ, mix)
    return DspnModel(derive_bottom(t), t,
                     build_top(n, arities, k, rng.dirichlet(np.full(k, 2.0))))


def test_gen_hmm_writes_dataset_and_generator(workdir, capsys):
    data = workdir / "d.seqs"
    gen = workdir / "g.hmm"
    code, out, err = run_cli(capsys, "gen-hmm", "--states", 2, "--vars", 1,
                             "--len", 12, "--count", 30, "--seed", 5,
                             "-o", data, "--model-out", gen)
    assert code == 0
    ds = load_dataset(data)
    assert len(ds) == 30
    assert set(ds.lengths()) == {12}
    assert gen.exists()


def test_gen_hmm_is_deterministic(workdir, capsys):
    a, b = workdir / "a.seqs", workdir / "b.seqs"
    run_cli(capsys, "gen-hmm", "--seed", 3, "--len", 5, "--count", 4, "-o", a)
    run_cli(capsys, "gen-hmm", "--seed", 3, "--len", 5, "--count", 4, "-o", b)
    assert a.read_text() == b.read_text()


def test_validate_good_model(workdir, capsys):
    path = workdir / "m.dspn"
    save_model(small_model(), path)
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 0
    assert "verified" in out


def test_validate_flags_broken_graph(workdir, capsys):
    from dspn.graph import GraphBuilder
    b = GraphBuilder(1, (2,), 0)
    s0 = b.sum([b.indicator(0, 0), b.indicator(0, 1)], [0.5, 0.5])
    s1 = b.sum([b.indicator(0, 0), b.indicator(0, 1)], [0.4, 0.6])
    g = b.build([b.product([s0, s1])])
    path = workdir / "bad.spn"
    save_graph(g, path)
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 1
    assert "non-decomposable" in out


def test_unroll_command(workdir, capsys):
    path = workdir / "m.dspn"
    out_path = workdir / "m.spn"
    m = small_model()
    save_model(m, path)
    code, _, _ = run_cli(capsys, "unroll", path, "-T", 4, "-o", out_path)
    assert code == 0
    from dspn.data import load_graph
    g = load_graph(out_path)
    assert g.n_vars == 4 * m.n_vars


def test_infer_logliks_match_library(workdir, capsys):
    m = small_model(seed=1)
    mpath = workdir / "m.dspn"
    save_model(m, mpath)
    rng = np.random.default_rng(2)
    from dspn.data import SequenceDataset
    seqs = [rng.integers(0, 2, (T, 1)) for T in (3, 5, 2)]
    dpath = workdir / "d.seqs"
    save_dataset(SequenceDataset(seqs, (2,)), dpath)
    code, out, _ = run_cli(capsys, "infer", mpath, dpath)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sequence,length,log_likelihood"
    got = [float(line.split(",")[2]) for line in lines[1:]]
    np.testing.assert_allclose(got, dataset_logliks(m, seqs), rtol=1e-10)


def test_conditional_equals_ratio_of_two_runs(workdir, capsys):
    m = small_model(seed=3)
    mpath = workdir / "m.dspn"
    save_model(m, mpath)
    from dspn.data import SequenceDataset
    base = np.full((3, 1), -1, dtype=np.int64)
    dpath = workdir / "free.seqs"
    save_dataset(SequenceDataset([base.copy()], (2,)), dpath)

    # run 1: only the conditioning variable observed
    given_only = base.copy()
    given_only[0, 0] = 1
    p1 = workdir / "given.seqs"
    save_dataset(SequenceDataset([given_only], (2,)), p1)
    _, out1, _ = run_cli(capsys, "infer", mpath, p1)
    den = float(out1.strip().splitlines()[1].split(",")[2])

    # run 2: query and conditioning variables observed
    both = given_only.copy()
    both[2, 0] = 0
    p2 = workdir / "both.seqs"
    save_dataset(SequenceDataset([both], (2,)), p2)
    _, out2, _ = run_cli(capsys, "infer", mpath, p2)
    num = float(out2.strip().splitlines()[1].split(",")[2])

    code, out, _ = run_cli(capsys, "infer", mpath, dpath,
                           "--query", "2=0", "--given", "0=1")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[4]) == pytest.approx(np.exp(num - den), rel=1e-9)


def test_conditional_rejects_observed_overlap(workdir, capsys):
    m = small_model(seed=4)
    mpath = workdir / "m.dspn"
    save_model(m, mpath)
    from dspn.data import SequenceDataset
    seq = np.array([[1], [0]])
    dpath = workdir / "obs.seqs"
    save_dataset(SequenceDataset([seq], (2,)), dpath)
    code, _, err = run_cli(capsys, "infer", mpath, dpath,
                           "--query", "0=1", "--given", "1=0")
    assert code == 1
    assert "missing" in err


def test_learn_params_improves_loglik(workdir, capsys):
    rng = np.random.default_rng(5)
    from dspn.data import SequenceDataset
    from dspn.hmm import hmm_dataset, random_hmm
    h = random_hmm(2, (2,), rng, concentration=0.6)
    seqs = hmm_dataset(h, 50, 10, rng)
    dpath = workdir / "train.seqs"
    save_dataset(SequenceDataset(seqs, (2,)), dpath)
    m = small_model(seed=5)
    mpath = workdir / "m.dspn"
    save_model(m, mpath)
    outpath = workdir / "trained.dspn"
    code, _, _ = run_cli(capsys, "learn-params", mpath, dpath,
                         "--iters", 30, "--alpha", 0.05, "-o", outpath)
    assert code == 0
    trained = load_model(outpath)
    assert dataset_logliks(trained, seqs).sum() > dataset_logliks(m, seqs).sum()


def test_learn_struct_emits_trace_and_model(workdir, capsys):
    from dspn.data import SequenceDataset
    from dspn.hmm import hmm_dataset, random_hmm
    rng = np.random.default_rng(6)
    h = random_hmm(2, (2,), rng, concentration=0.8)
    dpath = workdir / "train.seqs"
    save_dataset(SequenceDataset(hmm_dataset(h, 60, 10, rng), (2,)), dpath)
    outpath = workdir / "learned.dspn"
    code, out, _ = run_cli(capsys, "learn-struct", dpath, "--max-iters", 4,
                           "--patience", 2, "--em-iters", 3, "--max-k", 2,
                           "--seed", 6, "-o", outpath)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# seed=6"
    assert lines[1] == ("iteration,accepted,template_node_count,k,"
                        "train_ll,validation_ll,seconds")
    assert len(lines) >= 3
    model = load_model(outpath)
    assert model.k >= 1


def test_bench_emits_schema_stable_csv(workdir, capsys):
    config = {
        "generator": {"states": 2, "vars": 1, "length": 10, "count": 40},
        "folds": 2,
        "seed": 1,
        "search": {"max_iters": 2, "patience": 1, "em_iters": 2, "max_k": 2},
        "train": {"iterations": 5, "laplace_alpha": 0.1},
        "hmm": {"states": 2, "iterations": 10, "alpha": 0.05},
    }
    cpath = workdir / "bench.json"
    cpath.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "bench", cpath)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# seed=1 folds=2"
    assert lines[1] == ("model,mean_test_nll,std_error,"
                        "learn_seconds_per_iter,inference_seconds")
    names = [line.split(",")[0] for line in lines[2:]]
    assert names == ["true", "dspn", "hmm"]
    for line in lines[2:]:
        fields = line.split(",")
        assert len(fields) == 5
        assert float(fields[1]) > 0  # NLL of binary sequences is positive


def test_installed_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "dspn.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "validate" in proc.stdout


def test_static_spn_infer(workdir, capsys):
    g = random_valid_spn(4, np.random.default_rng(7))
    gpath = workdir / "g.spn"
    save_graph(g, gpath)
    from dspn.data import SequenceDataset
    seqs = [np.array([[0, 1, 1, 0]]), np.array([[1, -1, 0, 1]])]
    dpath = workdir / "flat.seqs"
    save_dataset(SequenceDataset(seqs, (2, 2, 2, 2)), dpath)
    code, out, _ = run_cli(capsys, "infer", gpath, dpath)
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def _non_decomposable_spn():
    from dspn.graph import GraphBuilder
    b = GraphBuilder(1, (2,), 0)
    s0 = b.sum([b.indicator(0, 0), b.indicator(0, 1)], [0.5, 0.5])
    s1 = b.sum([b.indicator(0, 0), b.indicator(0, 1)], [0.4, 0.6])
    return b.build([b.product([s0, s1])])


def test_commands_refuse_models_that_fail_verification(workdir, capsys):
    from dspn.data import SequenceDataset
    from dspn.dynamic import TopNetwork
    from dspn.graph import GraphBuilder
    spn = workdir / "bad.spn"
    save_graph(_non_decomposable_spn(), spn)
    flat = workdir / "flat.seqs"
    save_dataset(SequenceDataset([np.array([[1]])], (2,)), flat)
    code, out, err = run_cli(capsys, "infer", spn, flat)
    assert code == 1 and out == ""
    assert "non-decomposable" in err

    # a top network multiplying the two slots, whose scopes are identical
    m = small_model(seed=8)
    b = GraphBuilder(1, (2,), 2)
    top = TopNetwork(b.build([b.product([b.interface_input(0),
                                         b.interface_input(1)])]))
    bad = DspnModel(m.bottom, m.template, top, strict=False)
    mpath = workdir / "bad.dspn"
    save_model(bad, mpath)
    seqs = workdir / "d.seqs"
    save_dataset(SequenceDataset([np.array([[0], [1]])], (2,)), seqs)
    for argv in (("infer", mpath, seqs), ("unroll", mpath, "-T", 2, "-o",
                                          workdir / "u.spn"),
                 ("learn-params", mpath, seqs, "--iters", 1)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "top network" in err
    code, out, _ = run_cli(capsys, "validate", mpath)
    assert code == 1
    assert "top network" in out


def test_conditional_on_zero_probability_evidence_fails(workdir, capsys):
    from dspn.data import SequenceDataset
    from dspn.graph import GraphBuilder
    b = GraphBuilder(2, (2, 2), 0)
    never_one = b.sum([b.indicator(0, 0), b.indicator(0, 1)], [1.0, 0.0])
    coin = b.sum([b.indicator(1, 0), b.indicator(1, 1)], [0.5, 0.5])
    gpath = workdir / "g.spn"
    save_graph(b.build([b.product([never_one, coin])]), gpath)
    dpath = workdir / "free.seqs"
    save_dataset(SequenceDataset([np.array([[-1, -1]])], (2, 2)), dpath)
    code, out, err = run_cli(capsys, "infer", gpath, dpath,
                             "--query", "1=0", "--given", "0=1")
    assert code == 1 and out == ""
    assert "probability zero" in err


def test_conditional_on_mixed_lengths_matches_unrolled(workdir, capsys):
    from dspn.data import SequenceDataset
    from dspn.inference import Evidence, conditional_query
    m = small_model(seed=9, n=2)
    mpath = workdir / "m.dspn"
    save_model(m, mpath)
    rng = np.random.default_rng(9)
    seqs = [rng.integers(-1, 2, (T, 2)) for T in (4, 1, 6, 2, 4)]
    for s in seqs:
        s[0] = -1  # the query and conditioning variables
    dpath = workdir / "mixed.seqs"
    save_dataset(SequenceDataset(seqs, (2, 2)), dpath)
    code, out, _ = run_cli(capsys, "infer", mpath, dpath,
                           "--query", "0=1", "--given", "1=0")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [len(s) for s in seqs]
    for seq, row in zip(seqs, rows):
        flat = seq.reshape(-1)
        given = Evidence(flat).merge(Evidence.observing(flat.size, {1: 0}))
        want = conditional_query(unroll(m, len(seq)),
                                 Evidence.observing(flat.size, {0: 1}), given)
        assert float(row[4]) == pytest.approx(want, rel=1e-9)


def test_one_sequence_file_matches_its_row_and_the_unrolled_circuit(workdir,
                                                                   capsys):
    # a one-sequence file is scored by the transfer-matrix chain, a
    # multi-sequence file by the rolling pass
    from dspn.data import SequenceDataset
    from dspn.inference import Evidence, conditional_query, log_likelihood
    m = small_model(seed=10, n=2, k=3)
    assert m.template.graph.compiled().inputs_linear
    assert m.top.graph.compiled().inputs_linear
    mpath = workdir / "m.dspn"
    save_model(m, mpath)
    rng = np.random.default_rng(10)
    seqs = [rng.integers(-1, 2, (T, 2)) for T in (5, 1, 7, 3)]
    for s in seqs:
        s[0] = -1  # the query and conditioning variables
    many = workdir / "many.seqs"
    save_dataset(SequenceDataset(seqs, (2, 2)), many)
    conditional = ("--query", "0=1", "--given", "1=0")

    def rows(path, *flags):
        code, out, _ = run_cli(capsys, "infer", mpath, path, *flags)
        assert code == 0
        return [[float(x) for x in line.split(",")]
                for line in out.strip().splitlines()[1:]]

    plain_rows, cond_rows = rows(many), rows(many, *conditional)
    for i, seq in enumerate(seqs):
        one = workdir / f"one{i}.seqs"
        save_dataset(SequenceDataset([seq], (2, 2)), one)
        [plain], [cond] = rows(one), rows(one, *conditional)
        # rows print 12 significant digits
        assert plain[1:] == pytest.approx(plain_rows[i][1:], rel=1e-11)
        assert cond[1:] == pytest.approx(cond_rows[i][1:], rel=1e-11)
        flat = seq.reshape(-1)
        g = unroll(m, len(seq))
        assert plain[2] == pytest.approx(log_likelihood(g, Evidence(flat)),
                                         rel=1e-9)
        given = Evidence(flat).merge(Evidence.observing(flat.size, {1: 0}))
        want = conditional_query(g, Evidence.observing(flat.size, {0: 1}), given)
        assert cond[4] == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("command", ["infer", "learn-params"])
def test_dataset_values_outside_model_arities_fail(workdir, capsys, command):
    # the dataset's header allows a 2 that the binary model does not
    from dspn.data import SequenceDataset
    mpath = workdir / "m.dspn"
    save_model(small_model(seed=10), mpath)
    dpath = workdir / "ternary.seqs"
    save_dataset(SequenceDataset([np.array([[0], [1]]), np.array([[1], [2]])],
                                 (3,)), dpath)
    code, out, err = run_cli(capsys, command, mpath, dpath)
    assert code == 1 and out == ""
    assert "sequence 1, slice 1, var 0: value 2 out of range" in err


def test_flat_circuit_checks_each_variable_arity(workdir, capsys):
    # a circuit's variables are the flattened slices, each with its arity
    from dspn.data import SequenceDataset
    g = random_valid_spn(4, np.random.default_rng(10), arities=(2, 3, 2, 2))
    gpath = workdir / "g.spn"
    save_graph(g, gpath)
    dpath = workdir / "flat.seqs"
    save_dataset(SequenceDataset([np.array([[0, 2, 1, 2]])], (3, 3, 3, 3)), dpath)
    code, out, err = run_cli(capsys, "infer", gpath, dpath)
    assert code == 1 and out == ""
    assert "sequence 0, slice 0, var 3: value 2 out of range" in err


@pytest.mark.parametrize("flag, value, where", [
    ("--query", "0=5", "slice 0, var 0: value 5"),
    ("--given", "1=7", "slice 1, var 0: value 7"),
])
def test_conditional_values_outside_model_arities_fail(workdir, capsys, flag,
                                                       value, where):
    from dspn.data import SequenceDataset
    mpath = workdir / "m.dspn"
    save_model(small_model(seed=11), mpath)
    dpath = workdir / "free.seqs"
    save_dataset(SequenceDataset([np.full((3, 1), -1)], (2,)), dpath)
    other = {"--query": ("--given", "2=1"), "--given": ("--query", "2=1")}[flag]
    code, out, err = run_cli(capsys, "infer", mpath, dpath, flag, value, *other)
    assert code == 1 and out == ""
    assert f"sequence 0, {where} out of range" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["infer", "validate"])
def test_non_finite_weights_are_refused(workdir, capsys, command, value):
    from dspn.data import SequenceDataset
    doc = small_model(seed=12).to_dict()
    weights = next(nd for nd in doc["template"]["nodes"]
                   if nd["kind"] == "sum")["weights"]
    weights[0] = float(value)
    mpath = workdir / "bad.dspn"
    mpath.write_text(json.dumps(doc))
    dpath = workdir / "d.seqs"
    save_dataset(SequenceDataset([np.array([[0], [1]])], (2,)), dpath)
    argv = (command, mpath, dpath) if command == "infer" else (command, mpath)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "non-finite weight" in err


@pytest.mark.parametrize("flag", ["--query", "--given"])
def test_conditional_values_must_be_non_negative(workdir, capsys, flag):
    # -1 marks a missing value, so as a query or condition it would ask nothing
    from dspn.data import SequenceDataset
    mpath = workdir / "m.dspn"
    save_model(small_model(seed=13), mpath)
    dpath = workdir / "free.seqs"
    save_dataset(SequenceDataset([np.full((3, 1), -1)], (2,)), dpath)
    other = {"--query": ("--given", "2=1"), "--given": ("--query", "2=1")}[flag]
    code, out, err = run_cli(capsys, "infer", mpath, dpath, flag, "0=-1", *other)
    assert code == 1 and out == ""
    assert f"error: {flag} 0=-1" in err


@pytest.mark.parametrize("block, key", [("search", "nb_components"),
                                        ("train", "momentum")])
def test_bench_rejects_unknown_config_keys(workdir, capsys, block, key):
    config = {"generator": {"states": 2, "vars": 1, "length": 5, "count": 10},
              "folds": 2, block: {key: 2}}
    cpath = workdir / "bench.json"
    cpath.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "bench", cpath)
    assert code == 1 and out == ""
    assert err.startswith("error:")
    assert repr(key) in err and repr(block) in err


@pytest.mark.parametrize("breakage", ["f_map", "bottom"])
def test_infer_refuses_mismatched_interface(workdir, capsys, breakage):
    # a slot-to-root map that is not a bijection, or a bottom network with
    # fewer roots than the template, is a malformed document
    from dspn.data import SequenceDataset
    doc = small_model(seed=14, k=3).to_dict()
    if breakage == "f_map":
        doc["f_map"] = [0, 0, 1]
    else:
        doc["bottom"]["roots"] = doc["bottom"]["roots"][:2]
    mpath = workdir / "bad.dspn"
    mpath.write_text(json.dumps(doc))
    dpath = workdir / "d.seqs"
    save_dataset(SequenceDataset([np.array([[0], [1]])], (2,)), dpath)
    code, out, err = run_cli(capsys, "infer", mpath, dpath)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
