import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rateorank as rr
from rateorank import cli, estimate


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

    def test_default_cv_grid(self, tmp_path):
        data, _ = _ordinal_csv(tmp_path / "cmp.csv")
        out = tmp_path / "fit.json"
        assert cli.main(["fit", data, "--model", "btl", "--cv-grid", "default", "--out", str(out)]) == 0
        table = cli.load_result_document(out)["metrics"]["cv_table"]
        assert [entry["sigma"] for entry in table] == list(rr.DEFAULT_SIGMA_GRID)

    def test_cv_grid_rejected_where_unread(self, tmp_path, capsys):
        data, _ = _ordinal_csv(tmp_path / "cmp.csv")
        assert cli.main(["fit", data, "--model", "btl", "--cv-grid", "1,x"]) == 2
        assert "--cv-grid" in capsys.readouterr().err
        # The cardinal fit is closed-form: there is no noise scale to cross-validate.
        ratings = _write(tmp_path / "r.csv", "a,1\nb,2\n")
        assert cli.main(["fit", ratings, "--model", "cardinal", "--cv-grid", "0.5,1"]) == 2
        assert "--cv-grid" in capsys.readouterr().err

    def test_sigma_and_seed_rejected_where_unread(self, tmp_path, capsys):
        data, _ = _ordinal_csv(tmp_path / "cmp.csv")
        # --cv-grid picks sigma, so a fixed --sigma beside it would be ignored.
        assert cli.main(["fit", data, "--model", "btl", "--sigma", "5", "--cv-grid", "0.5,1"]) == 2
        assert "error: --sigma" in capsys.readouterr().err
        # --seed only shuffles the CV folds.
        ratings = _write(tmp_path / "r.csv", "a,1\nb,2\n")
        for argv in (["fit", data, "--model", "btl", "--sigma", "1", "--seed", "3"],
                     ["fit", ratings, "--model", "cardinal", "--seed", "3"]):
            assert cli.main(argv) == 2
            assert "error: --seed" in capsys.readouterr().err
        # With --cv-grid the seed is read, and it defaults to 0.
        out_default, out_zero = tmp_path / "default.json", tmp_path / "zero.json"
        assert cli.main(["fit", data, "--model", "btl", "--cv-grid", "0.5,1", "--out", str(out_default)]) == 0
        assert cli.main(["fit", data, "--model", "btl", "--cv-grid", "0.5,1", "--seed", "0", "--out", str(out_zero)]) == 0
        assert out_default.read_text(encoding="utf-8") == out_zero.read_text(encoding="utf-8")

    @pytest.mark.parametrize("flags, text", [
        ([], "the btl model needs --sigma or --cv-grid"),
        (["--cv-grid", "1,x"], "--cv-grid must be 'default' or comma-separated numbers, got '1,x'"),
        (["--cv-grid", "nan,1"], "sigma_grid must be nonempty, positive and finite, got (nan, 1.0)"),
        (["--sigma", "1", "--b-bound", "nan"], "btl needs a positive, finite box bound, got nan"),
    ], ids=["no-sigma", "cv-grid-text", "cv-grid-nan", "b-bound-nan"])
    def test_flags_judged_before_the_csv_is_read(self, tmp_path, monkeypatch, capsys, flags, text):
        def unread(*args):
            raise AssertionError("the CSV was read")

        monkeypatch.setattr(rr.graph, "read_rows", unread)
        assert cli.main(["fit", str(tmp_path / "cmp.csv"), "--model", "btl", *flags]) == 2
        assert capsys.readouterr().err == f"error: {text}\n"

    def test_nonconvergence_warns_and_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(estimate, "_arc_search", lambda *args: None)
        data, _ = _ordinal_csv(tmp_path / "cmp.csv")
        assert cli.main(["fit", data, "--model", "btl", "--sigma", "1"]) == 3
        assert "warning: solver did not converge" in capsys.readouterr().err

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

    def test_non_utf8_csv_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,b,+1\nb,c\u00e9,-1\n".encode("latin-1"))
        assert cli.main(["fit", str(path), "--model", "btl", "--sigma", "1"]) == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text: invalid continuation byte (0xe9)\n"

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

    def test_fit_merges_the_rows_into_pairs_once(self, tmp_path, monkeypatch):
        data, _ = _ordinal_csv(tmp_path / "cmp.csv")
        calls = []
        original = rr.graph.index_pairs

        def counting(d, left, right):
            calls.append(left.size)
            return original(d, left, right)

        monkeypatch.setattr(rr.graph, "index_pairs", counting)
        assert cli.main(["fit", data, "--model", "btl", "--sigma", "1"]) == 0
        # The design's rows, once: the Laplacian is built from those pairs without merging them again.
        assert calls == [270]

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

    def test_cv_warm_starts_fold_fits_and_not_the_final_fit(self, tmp_path, monkeypatch):
        data, _ = _ordinal_csv(tmp_path / "cmp.csv")
        calls = []
        original = estimate.mle_fit

        def recording(obs, config, **kwargs):
            calls.append((obs.model.sigma, kwargs))
            return original(obs, config, **kwargs)

        monkeypatch.setattr(estimate, "mle_fit", recording)
        assert cli.main(["fit", data, "--model", "thurstone", "--cv-grid", "0.25,0.5,1,2"]) == 0
        folds, (_, final_kwargs) = calls[:-1], calls[-1]
        # Three folds at each of the four sigma; each fold's first fit starts at zero.
        assert [sigma for sigma, _ in folds] == [s for s in (0.25, 0.5, 1.0, 2.0) for _ in range(3)]
        assert all(kwargs.get("start") is None for _, kwargs in folds[:3])
        assert all(kwargs["start"].shape == (4,) for _, kwargs in folds[3:])
        assert "start" not in final_kwargs

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

    def test_grid_resolution_defaults_to_20(self, capsys):
        assert cli.main(["decide", "--grid", "0.1", "10", "0.1", "10"]) == 0
        assert "decision grid 20x20:" in capsys.readouterr().out

    def test_grid_range_validation(self, capsys):
        assert cli.main(["decide", "--grid", "10", "0.1", "0.1", "10"]) == 2

    def test_flags_rejected_where_unread(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        # --out writes only the grid table.
        assert cli.main(["decide", "--sigma-c", "1", "--sigma-o", "1", "--out", str(out)]) == 2
        assert "error: --out" in capsys.readouterr().err
        assert not out.exists()
        # --resolution sizes only the grid table.
        assert cli.main(["decide", "--sigma-c", "1", "--sigma-o", "1", "--resolution", "5"]) == 2
        assert "error: --resolution" in capsys.readouterr().err
        # The grid sweeps both scales, so a fixed one beside it would be ignored.
        for flag in ("--sigma-c", "--sigma-o"):
            assert cli.main(["decide", "--grid", "0.1", "10", "0.1", "10", flag, "5"]) == 2
            assert f"error: {flag}" in capsys.readouterr().err


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
        own = [rr.build_laplacian(g.d, g.edges).trace_pinv_std for g in graphs]
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
            (json.dumps(self._config_doc(fit={"max_iters": 10})), "config field fit: unknown"),
            (json.dumps(self._config_doc(seeed=4)), "config field seeed: unknown"),
            (json.dumps(self._config_doc(model={"kind": "paired_linear", "sigma": 1.0, "sigmaa": 9})),
             "config field model.sigmaa: unknown"),
            (json.dumps(self._config_doc(w_true={"rule": "uniform_box", "bb": 0.5})), "config field w_true.bb: unknown"),
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

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"model": {"kind": "b\u00e9"}}'.encode("latin-1"))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON ('utf-8' codec can't decode byte 0xe9")

    def test_binary_model_needs_b_bound(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        doc = self._config_doc()
        doc["model"] = {"kind": "btl", "sigma": 1.0}
        cfg.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert "b_bound" in capsys.readouterr().err

    def test_bad_config_full_text(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        thurstone = {"kind": "thurstone", "sigma": 1.0, "b_bound": 1.0}
        without_w_true = {k: v for k, v in self._config_doc().items() if k != "w_true"}
        # Each bad document with the whole stderr text it exits 2 with; a document with
        # several faults names the first one the parser checks.
        cases = [
            ("not json {", f"{cfg}: invalid JSON (Expecting value: line 1 column 1 (char 0))"),
            ({"model": {"kind": "mystery", "sigma": 1}}, "config field model.kind: unknown model 'mystery'"),
            (self._config_doc(trials="many"), "config field trials: expected an integer, got 'many'"),
            (without_w_true, "config field w_true: missing"),
            (self._config_doc(sweep={"param": "delta", "values": [1]}),
             "config field sweep.param: cannot sweep 'delta'"),
            (self._config_doc(sweep={"param": "n", "values": []}),
             "config field sweep.values: must be a nonempty list"),
            (self._config_doc(fit={"max_iters": 10}), "config field fit: unknown"),
            (self._config_doc(seeed=4), "config field seeed: unknown"),
            (self._config_doc(model={"kind": "paired_linear", "sigma": 1.0, "sigmaa": 9}),
             "config field model.sigmaa: unknown"),
            (self._config_doc(w_true={"rule": "uniform_box", "bb": 0.5}), "config field w_true.bb: unknown"),
            (self._config_doc(sweep={"param": "n", "values": [12.9, 24]}),
             "config field sweep.values: expected an integer, got 12.9"),
            (self._config_doc(sweep={"param": "n", "values": [True]}),
             "config field sweep.values: expected an integer, got True"),
            (self._config_doc(sweep={"param": "d", "values": [5, "6"]}),
             "config field sweep.values: expected an integer, got '6'"),
            (self._config_doc(sweep={"param": "sigma", "values": ["1"]}),
             "config field sweep.values: expected a number, got '1'"),
            (self._config_doc(sweep={"param": "sigma", "values": [False]}),
             "config field sweep.values: expected a number, got False"),
            (self._config_doc(sweep={"param": "topology.kind", "values": [3]}),
             "config field sweep.values: expected str, got 3"),
            (self._config_doc(w_true={"rule": "uniform_box", "b": None}),
             "config field w_true.b: expected a number, got None"),
            (self._config_doc(w_true={"rule": "uniform_box", "b": True}),
             "config field w_true.b: expected a number, got True"),
            (self._config_doc(w_true={"rule": "packing_vertex", "delta": [1]}),
             "config field w_true.delta: expected a number, got [1]"),
            (self._config_doc(w_true={"rule": "packing_vertex", "index": 1.7}),
             "config field w_true.index: expected an integer, got 1.7"),
            (self._config_doc(w_true=[0.5, "-0.5", 0, 0, 0]), "config field w_true: expected a number, got '-0.5'"),
            (self._config_doc(w_true=[True, -1, 0, 0, 0]), "config field w_true: expected a number, got True"),
            (self._config_doc(w_true=["x", 1, -1, 0, 0]), "config field w_true: expected a number, got 'x'"),
            (self._config_doc(model={"kind": "btl", "sigma": 1.0}), "config field model.b_bound: missing"),
            (self._config_doc(model={**thurstone, "b_bound": float("inf")}),
             "config field model.b_bound: expected a number, got inf"),
            (self._config_doc(model={**thurstone, "sigma": float("nan")}),
             "config field model.sigma: expected a number, got nan"),
            (self._config_doc(model={**thurstone, "sigma": 10**400}),
             f"config field model.sigma: expected a number, got {10**400}"),
            (self._config_doc(trials=0), "config rejected: trials must be >= 1, got 0"),
            (self._config_doc(model=5), "config field model.kind: missing"),
            ([self._config_doc()], "config field model.kind: missing"),
            (self._config_doc(sweep=5), "config field sweep.param: missing"),
            (self._config_doc(w_true=5), "config field w_true: expected a vector or a generator rule object"),
            (self._config_doc(w_true={"rule": 5}), "unknown w_true rule 5"),
            (self._config_doc(w_true={"rule": "uniform_box", "b": 0.5, "alpha": 0.3, "index": 7}),
             "w_true.alpha: the uniform_box rule reads only b"),
            (self._config_doc(w_true={"rule": "packing_vertex", "b": 0.5}),
             "w_true.b: the packing_vertex rule reads only delta, alpha, index"),
            (self._config_doc(seed=-5), "config rejected: seed must be a non-negative integer, got -5"),
            (self._config_doc(trials="x", zzz=1), "config field zzz: unknown"),
            (self._config_doc(trials="x", model={"kind": "paired_linear", "sigma": "s"}),
             "config field model.sigma: expected a number, got 's'"),
        ]
        got = []
        for doc, _ in cases:
            cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            code = cli.main(["simulate", "--config", str(cfg)])
            captured = capsys.readouterr()
            got.append((code, captured.err, captured.out))
        assert got == [(2, f"error: {text}\n", "") for _, text in cases]


class TestTopologyAndPack:
    def test_topology_report(self, tmp_path, capsys):
        out = tmp_path / "edges.csv"
        code = cli.main(["topology", "--kind", "dumbbell", "--d", "6", "--n", "30", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "connected: True" in text
        assert "lambda2(std):" in text
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len({item for row in rows for item in row[:2]}) == 6
        assert sum(int(w) for _, _, w in rows) == 30

    def test_expander_flags_rejected_for_other_kinds(self, tmp_path, capsys):
        out = tmp_path / "edges.csv"
        for kind in ("complete", "dumbbell", "star"):
            for flag, text in (("--k", "it sets only the expander degree"),
                               ("--seed", "it seeds only the expander sampling")):
                argv = ["topology", "--kind", kind, "--d", "6", "--n", "30", flag, "3", "--out", str(out)]
                assert cli.main(argv) == 2
                assert capsys.readouterr().err == f"error: {flag}: {text}, and --kind is {kind}\n"
                assert not out.exists()

    def test_expander_needs_a_degree(self, capsys):
        assert cli.main(["topology", "--kind", "expander", "--d", "12", "--n", "60"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: expander topology needs a degree k\n"

    def test_expander_seed_defaults_to_0(self, tmp_path, capsys):
        edges = []
        for seed in ([], ["--seed", "0"], ["--seed", "1"]):
            out = tmp_path / f"edges{len(edges)}.csv"
            argv = ["topology", "--kind", "expander", "--d", "12", "--n", "60", "--k", "3", *seed, "--out", str(out)]
            assert cli.main(argv) == 0
            edges.append(out.read_text(encoding="utf-8"))
        assert edges[0] == edges[1] != edges[2]

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


class TestSharedParser:
    """``main`` parses with one parser per process; no call leaves state that the next one reads."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flags_do_not_carry_over(self, tmp_path, capsys):
        data, _ = _ordinal_csv(tmp_path / "c.csv")
        assert cli.main(["fit", data, "--model", "thurstone", "--cv-grid", "0.5,1", "--seed", "3"]) == 0
        assert cli.main(["fit", data, "--model", "thurstone", "--sigma", "1"]) == 0
        grid = ["--grid", "0.1", "10", "0.1", "10", "--resolution", "5", "--out", str(tmp_path / "g.csv")]
        assert cli.main(["decide", *grid]) == 0
        assert cli.main(["decide", "--sigma-c", "1", "--sigma-o", "1"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("first, code", [(["fit", "--model", "nope"], 2), (["--version"], 0)],
                             ids=["parse-error", "version"])
    def test_an_exit_while_parsing_leaves_the_next_call_working(self, capsys, first, code):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(first)
        assert exc_info.value.code == code
        capsys.readouterr()
        assert cli.main(["decide", "--sigma-c", "1", "--sigma-o", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("verdict: ") and captured.err == ""

    def test_a_command_replaced_after_the_parser_is_built_is_the_one_run(self, monkeypatch):
        cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_fit", lambda args: seen.append(args.sigma) or 0)
        assert cli.main(["fit", "never-read.csv", "--model", "btl", "--sigma", "2"]) == 0
        assert seen == [2.0]


def test_module_entry_point(tmp_path):
    src = str(Path(rr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "rateorank.cli", *argv], env=env, capture_output=True, text=True)

    version = run("--version")
    assert version.returncode == 0 and version.stdout == f"rateorank {rr.__version__}\n"
    missing = run("simulate", "--config", str(tmp_path / "missing.json"))
    assert missing.returncode == 2 and "missing.json" in missing.stderr


@pytest.mark.parametrize("command", ["fit", "fit --out", "simulate", "topology --out"])
def test_os_errors_exit_2(tmp_path, capsys, command):
    # A directory given where a file is read or written raises an OSError other than FileNotFoundError.
    data, _ = _ordinal_csv(tmp_path / "cmp.csv")
    argv = {
        "fit": ["fit", str(tmp_path), "--model", "btl", "--sigma", "1"],
        "fit --out": ["fit", data, "--model", "btl", "--sigma", "1", "--out", str(tmp_path)],
        "simulate": ["simulate", "--config", str(tmp_path)],
        "topology --out": ["topology", "--kind", "star", "--d", "10", "--n", "100", "--out", str(tmp_path)],
    }[command]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    # The file is opened before anything is printed.
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno ") and captured.err.endswith(f"'{tmp_path}'\n")


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


@pytest.mark.parametrize("command", ["fit", "simulate", "decide", "topology", "pack"])
@pytest.mark.parametrize("bad", ["missing-dir", "directory", "empty"])
def test_bad_out_fails_before_any_work(tmp_path, monkeypatch, capsys, command, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    data, config = _comparisons(tmp_path), _thurstone_config(tmp_path)
    monkeypatch.setattr(rr.graph, "read_rows", no_work)
    monkeypatch.setattr(rr.sim, "sweep", no_work)
    out, errno_text = {"missing-dir": (tmp_path / "missing" / "x.csv", "[Errno 2] No such file or directory"),
                       "directory": (tmp_path, "[Errno 21] Is a directory"),
                       "empty": ("", "[Errno 2] No such file or directory")}[bad]
    argv = {
        "fit": ["fit", data, "--model", "btl", "--sigma", "1"],
        "simulate": ["simulate", "--config", config],
        "decide": ["decide", "--grid", "0.1", "10", "0.1", "10"],
        "topology": ["topology", "--kind", "star", "--d", "10", "--n", "100"],
        "pack": ["pack", "--d", "8", "--delta", "1.0", "--alpha", "0.15"],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {errno_text}: '{out}'\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_bad_out_reports_what_open_would(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    data = _comparisons(tmp_path)
    monkeypatch.setattr(rr.graph, "read_rows", no_work)
    afile = _write(tmp_path / "afile", "")
    # A directory, a missing directory, and a regular file as a directory, at two depths.
    outs = [tmp_path, tmp_path / "missing" / "out.json", Path(afile, "out.json"), Path(afile, "sub", "out.json")]
    before = sorted(tmp_path.rglob("*"))
    for out in outs:
        with pytest.raises(OSError) as opened:
            open(out, "w")
        assert cli.main(["fit", data, "--model", "btl", "--sigma", "1", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {opened.value}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("target", ["newdir", "afile"])
def test_out_with_trailing_slash_is_a_directory(tmp_path, monkeypatch, capsys, target):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    data = _comparisons(tmp_path)
    monkeypatch.setattr(rr.graph, "read_rows", no_work)
    _write(tmp_path / "afile", "")
    out = str(tmp_path / target) + os.sep
    before = sorted(tmp_path.rglob("*"))
    # open() refuses both with EISDIR: a missing directory is not ENOENT, nor a regular file ENOTDIR.
    with pytest.raises(IsADirectoryError):
        open(out, "w")
    assert cli.main(["fit", data, "--model", "btl", "--sigma", "1", "--out", out]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: '{out}'\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv, message", [
    (lambda p: ["fit", _comparisons(p), "--model", "btl", "--cv-grid", "default", "--seed", "-3"],
     "--seed: must be a non-negative integer, got -3"),
    (lambda p: ["topology", "--kind", "expander", "--d", "12", "--n", "60", "--k", "3", "--seed", "-1"],
     "--seed: must be a non-negative integer, got -1"),
], ids=["fit", "topology"])
def test_negative_seed_refused_by_name_before_any_work(tmp_path, monkeypatch, capsys, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    argv = argv(tmp_path)
    for module, name in ((rr.graph, "read_rows"), (rr.graph, "_base_edges")):
        monkeypatch.setattr(module, name, no_work)
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, fragment", [
    (lambda p: ["fit", _comparisons(p), "--model", "btl", "--sigma", "nan"], "needs a finite sigma > 0, got nan"),
    (lambda p: ["fit", _comparisons(p), "--model", "btl", "--sigma", "1", "--b-bound", "nan"], "box bound, got nan"),
    (lambda p: ["fit", _comparisons(p), "--model", "btl", "--cv-grid", "nan,1"], "sigma_grid"),
    (lambda p: ["fit", _write(p / "r.csv", "a,1\nb,2\n"), "--model", "cardinal", "--sigma", "inf"],
     "sigma must be nonnegative and finite, got inf"),
    (lambda p: ["fit", _write(p / "r.csv", "a,1\nb,2\n"), "--model", "cardinal", "--b-bound", "nan"],
     "box bound must be positive and finite, got nan"),
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
], ids=["fit-sigma", "fit-b-bound", "fit-cv-grid", "fit-cardinal-sigma", "fit-cardinal-b-bound", "rating",
        "decide-sigma-c", "decide-sigma-o", "grid-sigma-c", "grid-sigma-o", "simulate-b-bound", "simulate-sigma",
        "simulate-huge-int", "pack-delta"])
def test_non_finite_inputs_rejected(tmp_path, capsys, argv, fragment):
    assert cli.main(argv(tmp_path)) == 2
    assert fragment in capsys.readouterr().err


def test_no_command_loads_scipy(tmp_path):
    # Both links are numpy: importing the CLI and running each command leaves scipy unloaded, lazily or not.
    data, config = _comparisons(tmp_path), _thurstone_config(tmp_path)
    argvs = [
        ["fit", data, "--model", "btl", "--sigma", "1"],
        ["fit", data, "--model", "thurstone", "--sigma", "1"],
        ["decide", "--grid", "0.1", "10", "0.1", "10", "--resolution", "5"],
        ["simulate", "--config", config],
        ["topology", "--kind", "expander", "--d", "12", "--n", "60", "--k", "3"],
        ["pack", "--d", "8", "--delta", "1", "--alpha", "0.15"],
    ]
    probe = ("import contextlib, io, json, sys\n"
             "import rateorank.cli as cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(rr.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)], env=env, capture_output=True, text=True,
                         check=True)
    assert json.loads(out.stdout) == [[0] * len(argvs), []]


def _three_comparisons(tmp_path):
    return _write(tmp_path / "cmp.csv", "a,b,+1\nb,c,-1\na,c,+1\n")


def _experiment(tmp_path, model, topology, b, trials):
    doc = {"model": model, "topology": {"kind": "complete", **topology}, "w_true": {"rule": "uniform_box", "b": b},
           "trials": trials, "seed": 0}
    return _write(tmp_path / "cfg.json", json.dumps(doc))


@pytest.mark.parametrize("argv, code, fragment", [
    (lambda p: ["decide", "--sigma-c", "1e200", "--sigma-o", "1"], 0, "verdict: ordinal\ncardinal risk ~ inf"),
    (lambda p: ["decide", "--sigma-c", "1", "--sigma-o", "1e160"], 0, "verdict: cardinal"),
    (lambda p: ["fit", _three_comparisons(p), "--model", "btl", "--sigma", "1e200"], 0, "converged=True"),
    (lambda p: ["pack", "--d", "30", "--delta", "1e200", "--alpha", "0.15"], 2, "delta"),
    (lambda p: ["pack", "--d", "30", "--delta", "1e-200", "--alpha", "0.15"], 2, "delta"),
    (lambda p: ["topology", "--kind", "complete", "--d", "3", "--n", str(10**20)], 2, "2**63"),
    (lambda p: ["decide", "--grid", "0.01", "10", "0.074", "0.076", "--resolution", "5"], 0, "indeterminate=25"),
    (lambda p: ["decide", "--grid", "1e200", "1e200", "1", "1", "--resolution", "1"], 0, "ordinal=1"),
    (lambda p: ["fit", _three_comparisons(p), "--model", "btl", "--sigma", "0.001"], 0, "converged=True"),
    (lambda p: ["simulate", "--config", _experiment(p, {"kind": "btl", "sigma": 1.0, "b_bound": 1.0},
                                                    {"d": 3, "n": 6}, 0.1, 200)], 0, "trials=200 failures=0"),
    (lambda p: ["simulate", "--config", _experiment(p, {"kind": "thurstone", "sigma": 1e200, "b_bound": 1.0},
                                                    {"d": 4, "n": 60}, 0.5, 3)], 0, "bound=[inf, inf]"),
    (lambda p: ["fit", _three_comparisons(p), "--model", "thurstone", "--sigma", "1e-150"], 2, "sigma=1e-150"),
    (lambda p: ["simulate", "--config", _experiment(p, {"kind": "thurstone", "sigma": 1e-200, "b_bound": 1.0},
                                                    {"d": 4, "n": 60}, 0.5, 3)], 2, "sigma=1e-200"),
], ids=["decide-sigma-c", "decide-sigma-o", "fit-huge-sigma", "pack-huge-delta", "pack-tiny-delta",
        "topology-huge-n", "grid-subnormal-kappa", "grid-huge-sigma-c", "fit-btl-swell", "simulate-tied-fit",
        "simulate-huge-sigma", "fit-tiny-sigma", "simulate-tiny-sigma"])
def test_float_range_edges_exit_cleanly(tmp_path, capsys, argv, code, fragment):
    # A finite flag whose square, exponential or integer leaves the machine range: an exit code, never a traceback.
    # pytest turns a RuntimeWarning into an error, so a numpy warning fails the case too.
    assert cli.main(argv(tmp_path)) == code
    out, err = capsys.readouterr()
    assert fragment in (out if code == 0 else err)
    assert err == "" if code == 0 else err.startswith("error: ")


def test_huge_noise_fit_writes_an_infinite_interval(tmp_path, capsys):
    doc = tmp_path / "fit.json"
    assert cli.main(["fit", _three_comparisons(tmp_path), "--model", "btl", "--sigma", "1e200", "--out", str(doc)]) == 0
    assert '"lower": Infinity' in doc.read_text(encoding="utf-8")
    assert cli.load_result_document(doc)["bounds"]["upper"] == float("inf")
