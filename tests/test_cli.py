import csv
import itertools
import json

import numpy as np
import pytest

import rateorank as rr
from rateorank import cli


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _ordinal_csv(path, d=4, repeats=45, sigma=1.0, seed=5):
    """Synthetic round-robin comparisons with letter ids, shuffled row order."""
    w = np.linspace(0.75, -0.75, d)
    w -= w.mean()
    names = [chr(ord("a") + i) for i in range(d)]
    pairs = list(itertools.combinations(range(d), 2)) * repeats
    design = np.array(pairs, dtype=np.intp)
    spec = rr.ModelSpec("thurstone", sigma=sigma, b_bound=1.0)
    y = rr.sample(spec, rr.QualityVector(w), design, seed=seed).outcomes
    rng = np.random.default_rng(seed + 1)
    order = rng.permutation(len(pairs))
    lines = [f"{names[design[i, 0]]},{names[design[i, 1]]},{'+1' if y[i] > 0 else '-1'}" for i in order]
    return _write(path, "\n".join(lines) + "\n"), names


class TestReaders:
    def test_ordinal_parsing(self, tmp_path):
        path = _write(tmp_path / "c.csv", "# comment\nb,a,+1\n\na,c,1\nc,b,-1\n")
        data = cli.read_ordinal_csv(path)
        assert data.item_ids == ("b", "a", "c")
        assert data.design.tolist() == [[0, 1], [1, 2], [2, 0]]
        assert data.outcomes.tolist() == [1.0, 1.0, -1.0]
        sorted_data = cli.read_ordinal_csv(path, id_order="sorted")
        assert sorted_data.item_ids == ("a", "b", "c")
        assert sorted_data.design.tolist() == [[1, 0], [0, 2], [2, 1]]

    def test_ordinal_rejects_bad_rows(self, tmp_path):
        cases = {
            "a,b\n": "line 1",
            "a,b,2\n": "outcome",
            "a,a,+1\n": "itself",
            "": "no comparison rows",
        }
        for text, fragment in cases.items():
            path = _write(tmp_path / "bad.csv", text)
            with pytest.raises(rr.DataFormatError, match=fragment):
                cli.read_ordinal_csv(path)

    def test_cardinal_parsing(self, tmp_path):
        path = _write(tmp_path / "r.csv", "x,1.5\ny,-2\nx,0.5\n")
        data = cli.read_cardinal_csv(path)
        assert data.item_ids == ("x", "y")
        assert data.design.tolist() == [0, 1, 0]
        assert data.outcomes.tolist() == [1.5, -2.0, 0.5]
        bad = _write(tmp_path / "bad.csv", "x,abc\n")
        with pytest.raises(rr.DataFormatError, match="line 1"):
            cli.read_cardinal_csv(bad)

    def test_dataset_model_mismatch(self, tmp_path):
        path = _write(tmp_path / "r.csv", "x,1.0\ny,0.0\nz,-1.0\n")
        data = cli.read_cardinal_csv(path)
        with pytest.raises(rr.ModelKindError):
            data.to_observations(rr.ModelSpec("btl", sigma=1.0, b_bound=1.0))


class TestFit:
    def test_cardinal_fit_document(self, tmp_path, capsys):
        rows = "\n".join(f"item{i % 3},{(i % 3) - 1 + 0.01 * i}" for i in range(12))
        data = _write(tmp_path / "ratings.csv", rows + "\n")
        out = tmp_path / "fit.json"
        assert cli.main(["fit", data, "--model", "cardinal", "--out", str(out)]) == 0
        doc = cli.load_result_document(out)
        assert doc["schema_version"] == "1"
        assert doc["model"] == "cardinal"
        scores = [item["w_hat"] for item in doc["items"]]
        assert scores == sorted(scores, reverse=True)
        assert {item["id"] for item in doc["items"]} == {"item0", "item1", "item2"}
        assert doc["metrics"]["iterations"] == 0
        assert doc["bounds"]["lower"] == doc["bounds"]["upper"]
        assert "fit cardinal" in capsys.readouterr().out

    def test_ordinal_fit_with_fixed_sigma(self, tmp_path):
        data, names = _ordinal_csv(tmp_path / "cmp.csv")
        out = tmp_path / "fit.json"
        code = cli.main(["fit", data, "--model", "thurstone", "--sigma", "1.0", "--out", str(out)])
        assert code == 0
        doc = cli.load_result_document(out)
        ranked = [item["id"] for item in doc["items"]]
        assert ranked == names  # truth is decreasing in id order
        assert doc["bounds"]["norm"] == "seminorm"
        assert doc["bounds"]["upper"] > doc["bounds"]["lower"] > 0
        assert doc["metrics"]["converged"] is True

    def test_ordinal_fit_with_cv_grid(self, tmp_path):
        data, _ = _ordinal_csv(tmp_path / "cmp.csv")
        out = tmp_path / "fit.json"
        code = cli.main(["fit", data, "--model", "btl", "--cv-grid", "0.5,1.0,2.0", "--out", str(out)])
        assert code == 0
        doc = cli.load_result_document(out)
        table = doc["metrics"]["cv_table"]
        assert [entry["sigma"] for entry in table] == [0.5, 1.0, 2.0]
        assert doc["sigma_used"] in (0.5, 1.0, 2.0)
        best = max(table, key=lambda entry: entry["heldout_loglik"])
        assert doc["sigma_used"] == best["sigma"]

    def test_ordinal_fit_needs_a_sigma_choice(self, tmp_path, capsys):
        data, _ = _ordinal_csv(tmp_path / "cmp.csv")
        assert cli.main(["fit", data, "--model", "thurstone"]) == 2
        assert "--sigma or --cv-grid" in capsys.readouterr().err

    def test_malformed_csv_exit_code(self, tmp_path, capsys):
        path = _write(tmp_path / "bad.csv", "a,b,+1\na,b,phooey\n")
        assert cli.main(["fit", str(path), "--model", "btl", "--sigma", "1"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_disconnected_design_exit_code(self, tmp_path, capsys):
        path = _write(tmp_path / "split.csv", "a,b,+1\nc,d,-1\n")
        assert cli.main(["fit", str(path), "--model", "thurstone", "--sigma", "1"]) == 3
        assert "connect" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["fit", str(tmp_path / "nope.csv"), "--model", "cardinal"]) == 2

    def test_id_order_does_not_change_scores(self, tmp_path):
        data, _ = _ordinal_csv(tmp_path / "cmp.csv")
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["fit", data, "--model", "btl", "--sigma", "1", "--out", str(out_a)])
        cli.main(["fit", data, "--model", "btl", "--sigma", "1", "--id-order", "sorted", "--out", str(out_b)])
        doc_a, doc_b = cli.load_result_document(out_a), cli.load_result_document(out_b)
        scores_a = {item["id"]: item["w_hat"] for item in doc_a["items"]}
        scores_b = {item["id"]: item["w_hat"] for item in doc_b["items"]}
        assert scores_a.keys() == scores_b.keys()
        for key in scores_a:
            assert scores_a[key] == pytest.approx(scores_b[key], abs=1e-9)

    def test_fit_builds_the_laplacian_once(self, tmp_path, monkeypatch):
        data, _ = _ordinal_csv(tmp_path / "cmp.csv")
        calls = []
        original = rr.graph.build_laplacian

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(rr.graph, "build_laplacian", counting)
        assert cli.main(["fit", data, "--model", "btl", "--sigma", "1"]) == 0
        assert calls == [4]

    def test_cv_builds_each_fold_laplacian_once(self, tmp_path, monkeypatch):
        data, _ = _ordinal_csv(tmp_path / "cmp.csv")
        calls = []
        original = rr.graph.build_laplacian

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(rr.graph, "build_laplacian", counting)
        assert cli.main(["fit", data, "--model", "thurstone", "--cv-grid", "0.25,0.5,1,2"]) == 0
        # One per training fold, shared by its four fits, and one for the final fit.
        assert calls == [4, 4, 4, 4]

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"schema_version": "99"}), encoding="utf-8")
        with pytest.raises(rr.DataFormatError, match="schema_version"):
            cli.load_result_document(path)


class TestDecide:
    def test_single_verdict(self, capsys):
        assert cli.main(["decide", "--sigma-c", "1e-6", "--sigma-o", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "verdict: cardinal" in out
        assert "ordinal risk in [" in out

    def test_requires_scales(self, capsys):
        assert cli.main(["decide", "--sigma-c", "1.0"]) == 2
        assert "--sigma-o" in capsys.readouterr().err

    def test_grid_output(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = cli.main(["decide", "--grid", "0.1", "10", "0.1", "10",
                         "--resolution", "5", "--out", str(out)])
        assert code == 0
        assert "decision grid 5x5" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        for row in rows:
            expected = rr.decide(float(row["sigma_c"]), float(row["sigma_o"]), 1.0).verdict
            assert row["verdict"] == expected

    def test_grid_range_validation(self, capsys):
        assert cli.main(["decide", "--grid", "10", "0.1", "0.1", "10"]) == 2


class TestSimulate:
    def _config_doc(self, **extra):
        doc = {
            "model": {"kind": "paired_linear", "sigma": 1.0},
            "topology": {"kind": "complete", "d": 5, "n": 80},
            "w_true": {"rule": "uniform_box", "b": 0.5},
            "trials": 5,
            "seed": 3,
        }
        doc.update(extra)
        return doc

    def test_sweep_run(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._config_doc(sweep={"param": "n", "values": [60, 120]})))
        out = tmp_path / "sweep.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8  # 2 sweep points x 4 pairwise metrics
        assert {row["value"] for row in rows} == {"60", "120"}
        assert "bound=[" in capsys.readouterr().out

    def test_single_point_defaults_to_n(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._config_doc()))
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        assert "n=80 seminorm_sq" in capsys.readouterr().out

    def test_bound_uses_the_sweep_point_topology(self, tmp_path, monkeypatch, capsys):
        doc = self._config_doc(sweep={"param": "n", "values": [400, 800]})
        doc["topology"] = {"kind": "expander", "d": 20, "n": 400, "k": 4}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        seeds, graphs, traces = [], [], []
        original = rr.graph.generate_topology
        original_bound = rr.bounds.minimax_seminorm

        def recording(*args, **kwargs):
            seeds.append(kwargs["seed"])
            graphs.append(original(*args, **kwargs))
            return graphs[-1]

        def recording_bound(*args):
            traces.append(args[-1])
            return original_bound(*args)

        monkeypatch.setattr(rr.graph, "generate_topology", recording)
        monkeypatch.setattr(rr.sim, "generate_topology", recording)
        monkeypatch.setattr(rr.bounds, "minimax_seminorm", recording_bound)
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        # Each sweep point's graph is generated once, and its bound comes from that graph.
        assert seeds == [3, 3 + 10**7]
        own = [rr.laplacian_of(g).trace_pinv_std for g in graphs]
        assert traces == own
        expected = [original_bound("paired_linear", 20, n, 1.0, 1.0, t) for n, t in zip((400, 800), own)]
        assert [line.split("bound=")[1] for line in capsys.readouterr().out.splitlines() if "bound=" in line] == [
            f"[{r.lower:.3g}, {r.upper:.3g}]" for r in expected
        ]

    def test_sweep_builds_each_point_laplacian_once(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._config_doc(sweep={"param": "n", "values": [60, 120]})))
        calls = []
        original = rr.graph.build_laplacian

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(rr.graph, "build_laplacian", counting)
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        # One per sweep point, shared by its trials, its seminorm metric and its bound line.
        assert calls == [5, 5]

    def test_zero_sigma_prints_no_bound(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._config_doc(model={"kind": "paired_linear", "sigma": 0.0})))
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "n=80 seminorm_sq" in out
        assert "bound=" not in out

    def test_config_validation(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cases = [
            ("not json {", "invalid JSON"),
            (json.dumps({"model": {"kind": "mystery", "sigma": 1}}), "unknown model"),
            (json.dumps(self._config_doc(trials="many")), "expected an integer"),
            (json.dumps({k: v for k, v in self._config_doc().items() if k != "w_true"}), "w_true"),
            (json.dumps(self._config_doc(sweep={"param": "delta", "values": [1]})), "cannot sweep"),
            (json.dumps(self._config_doc(sweep={"param": "n", "values": []})), "nonempty"),
            (json.dumps(self._config_doc(fit={"max_iters": "10"})), "fit.max_iters: expected an integer"),
            (json.dumps(self._config_doc(fit={"max_iters": 2.5})), "fit.max_iters: expected an integer"),
            (json.dumps(self._config_doc(fit={"grad_tol": "x"})), "fit.grad_tol: expected a number"),
            (json.dumps(self._config_doc(fit={"b_bound": "1"})), "fit.b_bound: expected a number"),
            (json.dumps(self._config_doc(fit={"sigma_grid": 5})), "fit.sigma_grid: expected list"),
            (json.dumps(self._config_doc(sweep={"param": "n", "values": [12.9, 24]})), "sweep.values: expected an integer"),
            (json.dumps(self._config_doc(sweep={"param": "n", "values": [True]})), "sweep.values: expected an integer"),
            (json.dumps(self._config_doc(sweep={"param": "d", "values": [5, "6"]})), "sweep.values: expected an integer"),
            (json.dumps(self._config_doc(sweep={"param": "sigma", "values": ["1"]})), "sweep.values: expected a number"),
            (json.dumps(self._config_doc(sweep={"param": "sigma", "values": [False]})), "sweep.values: expected a number"),
            (json.dumps(self._config_doc(sweep={"param": "topology.kind", "values": [3]})), "sweep.values: expected str"),
            (json.dumps(self._config_doc(w_true={"rule": "uniform_box", "b": None})), "w_true.b: expected a number"),
            (json.dumps(self._config_doc(w_true={"rule": "uniform_box", "b": True})), "w_true.b: expected a number"),
            (json.dumps(self._config_doc(w_true={"rule": "packing_vertex", "delta": [1]})),
             "w_true.delta: expected a number"),
            (json.dumps(self._config_doc(w_true={"rule": "packing_vertex", "index": 1.7})),
             "w_true.index: expected an integer"),
            (json.dumps(self._config_doc(w_true=[0.5, "-0.5", 0, 0, 0])), "w_true: expected a number, got '-0.5'"),
            (json.dumps(self._config_doc(w_true=[True, -1, 0, 0, 0])), "w_true: expected a number, got True"),
            (json.dumps(self._config_doc(w_true=["x", 1, -1, 0, 0])), "w_true: expected a number, got 'x'"),
        ]
        for text, fragment in cases:
            cfg.write_text(text)
            assert cli.main(["simulate", "--config", str(cfg)]) == 2
            assert fragment in capsys.readouterr().err

    def test_binary_model_needs_b_bound(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        doc = self._config_doc()
        doc["model"] = {"kind": "btl", "sigma": 1.0}
        cfg.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert "b_bound" in capsys.readouterr().err


class TestTopologyAndPack:
    def test_topology_report(self, tmp_path, capsys):
        out = tmp_path / "edges.csv"
        code = cli.main(["topology", "--kind", "dumbbell", "--d", "6", "--n", "30", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "connected: True" in text
        assert "lambda2(std):" in text
        g, ids = rr.read_edge_list(out)
        assert g.d == len(ids) == 6
        assert sum(w for _, _, w in g.edges) == 30

    def test_topology_argparse_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            cli.main(["topology", "--kind", "mystery", "--d", "6", "--n", "30"])

    def test_pack_command(self, tmp_path, capsys):
        out = tmp_path / "pack.json"
        assert cli.main(["pack", "--d", "8", "--delta", "1.0", "--alpha", "0.2", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "vectors:" in text
        doc = json.loads(out.read_text())
        assert doc["delta"] == 1.0
        assert len(doc["vectors"]) >= 2

    def test_pack_separations_scale_with_delta_squared(self, capsys):
        def separations(delta):
            assert cli.main(["pack", "--d", "30", "--delta", delta, "--alpha", "0.15"]) == 0
            line = next(t for t in capsys.readouterr().out.splitlines() if t.startswith("pair separation^2"))
            return [float(v) for v in line.split("[")[1].split("]")[0].split(",")]

        unit = separations("1.0")
        assert separations("1e8") == pytest.approx([1e16 * v for v in unit], rel=1e-6)

    def test_pack_infeasible_params(self, capsys):
        assert cli.main(["pack", "--d", "8", "--delta", "1.0", "--alpha", "0.9"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("exc,code", [
        (rr.DataFormatError, 2), (FileNotFoundError, 2), (ValueError, 2), (IndexError, 2),
        (rr.ConnectivityError, 3), (rr.ModelKindError, 3), (rr.FoldError, 3),
        (rr.InsufficientDataError, 3), (rr.PackingConstructionError, 3), (RuntimeError, 3),
    ])
    def test_exit_code_per_error_class(self, monkeypatch, capsys, exc, code):
        def failing(args):
            raise exc("boom")

        monkeypatch.setattr(cli, "cmd_decide", failing)
        assert cli.main(["decide", "--sigma-c", "1", "--sigma-o", "1"]) == code
        assert capsys.readouterr().err == "error: boom\n"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["--version"])
        assert exc_info.value.code == 0
        assert rr.__version__ in capsys.readouterr().out


def _thurstone_config(tmp_path, **model):
    doc = {
        "model": {"kind": "thurstone", "sigma": 1.0, "b_bound": 1.0, **model},
        "topology": {"kind": "complete", "d": 5, "n": 80},
        "w_true": {"rule": "uniform_box", "b": 0.5},
        "trials": 2,
        "seed": 3,
    }
    return _write(tmp_path / "cfg.json", json.dumps(doc))  # writes NaN and Infinity as JSON allows


def _comparisons(tmp_path):
    return _ordinal_csv(tmp_path / "cmp.csv")[0]


@pytest.mark.parametrize("argv, fragment", [
    (lambda p: ["fit", _comparisons(p), "--model", "btl", "--sigma", "nan"], "needs a finite sigma > 0, got nan"),
    (lambda p: ["fit", _comparisons(p), "--model", "btl", "--sigma", "1", "--b-bound", "nan"], "box bound, got nan"),
    (lambda p: ["fit", _comparisons(p), "--model", "btl", "--cv-grid", "nan,1"], "sigma_grid"),
    (lambda p: ["fit", _write(p / "r.csv", "a,1\nb,2\n"), "--model", "cardinal", "--sigma", "inf"],
     "sigma must be nonnegative and finite, got inf"),
    (lambda p: ["fit", _write(p / "r.csv", "a,1\nb,nan\n"), "--model", "cardinal"],
     "line 2: rating must be a number, got 'nan'"),
    (lambda p: ["decide", "--sigma-c", "nan", "--sigma-o", "1"], "sigma_c=nan"),
    (lambda p: ["decide", "--sigma-c", "1", "--sigma-o", "inf"], "sigma_o=inf"),
    (lambda p: ["decide", "--grid", "0.1", "nan", "0.1", "10"], "sigma_c range"),
    (lambda p: ["decide", "--grid", "0.1", "10", "0.1", "inf"], "sigma_o range"),
    (lambda p: ["simulate", "--config", _thurstone_config(p, b_bound=float("inf"))],
     "model.b_bound: expected a number, got inf"),
    (lambda p: ["simulate", "--config", _thurstone_config(p, sigma=float("nan"))],
     "model.sigma: expected a number, got nan"),
    (lambda p: ["simulate", "--config", _thurstone_config(p, sigma=10**400)],
     "model.sigma: expected a number, got 1000"),
    (lambda p: ["pack", "--d", "8", "--delta", "nan", "--alpha", "0.15"], "delta must be positive and finite"),
], ids=["fit-sigma", "fit-b-bound", "fit-cv-grid", "fit-cardinal-sigma", "rating", "decide-sigma-c",
        "decide-sigma-o", "grid-sigma-c", "grid-sigma-o", "simulate-b-bound", "simulate-sigma",
        "simulate-huge-int", "pack-delta"])
def test_non_finite_inputs_rejected(tmp_path, capsys, argv, fragment):
    assert cli.main(argv(tmp_path)) == 2
    assert fragment in capsys.readouterr().err
