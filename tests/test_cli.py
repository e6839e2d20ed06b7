"""CLI: subcommand wiring on small workloads."""

from __future__ import annotations

import json

import pytest

from repro import __version__, obs
from repro.cli import _app_for, main


class TestConfigs:
    def test_configs_lists_tables_vi_vii(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        for name in ("Configuration A", "Configuration B", "Configuration C",
                     "Finisterrae"):
            assert name in out
        assert "NFS Ver 3" in out and "Lustre" in out


class TestTraceAndModel:
    def test_trace_synthetic(self, tmp_path, capsys):
        out_dir = tmp_path / "traces"
        assert main(["trace", "--app", "synthetic", "--np", "4",
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "trace.0").exists()
        assert (out_dir / "model.json").exists()
        assert "traced synthetic" in capsys.readouterr().out

    def test_model_from_traces(self, tmp_path, capsys):
        out_dir = tmp_path / "traces"
        main(["trace", "--app", "synthetic", "--np", "4",
              "--out", str(out_dir)])
        capsys.readouterr()
        assert main(["model", "--traces", str(out_dir),
                     "--name", "synthetic"]) == 0
        out = capsys.readouterr().out
        assert "I/O model of synthetic" in out
        assert "InitOffset" in out

    def test_unknown_app_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "--app", "nope", "--out", str(tmp_path)])

    def test_unknown_config_rejected(self, tmp_path):
        out_dir = tmp_path / "traces"
        main(["trace", "--app", "synthetic", "--np", "4",
              "--out", str(out_dir)])
        with pytest.raises(SystemExit):
            main(["estimate", "--model", str(out_dir / "model.json"),
                  "--config", "nope"])


class TestEstimateAndSelect:
    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("cli") / "traces"
        main(["trace", "--app", "ior", "--np", "4", "--out", str(out_dir)])
        return str(out_dir / "model.json")

    def test_estimate(self, model_path, capsys):
        assert main(["estimate", "--model", model_path,
                     "--config", "configuration-A"]) == 0
        out = capsys.readouterr().out
        assert "BW_CH" in out and "total Time_io(CH)" in out

    def test_select(self, model_path, capsys):
        assert main(["select", "--model", model_path,
                     "--configs", "configuration-A,configuration-B"]) == 0
        out = capsys.readouterr().out
        assert "<- selected" in out

    def test_replay(self, model_path, capsys):
        assert main(["replay", "--model", model_path,
                     "--config", "configuration-A"]) == 0
        out = capsys.readouterr().out
        assert "total replayed I/O time" in out

    def test_signatures(self, model_path, capsys):
        assert main(["signatures", "--model", model_path]) == 0
        out = capsys.readouterr().out
        assert "Byna-style" in out and "phase 1:" in out


class TestUnreadableModel:
    """Every ``--model`` subcommand reports a missing or malformed model
    as a usage error (exit 2), never a traceback."""

    SUBCOMMANDS = [
        ["estimate", "--config", "configuration-A"],
        ["select", "--configs", "configuration-A"],
        ["degraded", "--configs", "configuration-A"],
        ["replay", "--config", "configuration-A"],
        ["signatures"],
    ]
    BAD_MODELS = {
        "missing": None,
        "not-json": "{not json",
        "wrong-shape": "[1, 2, 3]",
        "missing-keys": "{}",
    }

    @pytest.mark.parametrize("bad", sorted(BAD_MODELS))
    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda a: a[0])
    def test_clean_error(self, tmp_path, capsys, argv, bad):
        path = tmp_path / "model.json"
        if self.BAD_MODELS[bad] is not None:
            path.write_text(self.BAD_MODELS[bad])
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--model", str(path), *argv[1:]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro-io: error: cannot read model {path}: ")
        assert "Traceback" not in err


class TestUnreadableTraces:
    """``model --traces`` reports a damaged or missing trace directory
    as a usage error (exit 2, one line), never a traceback."""

    @pytest.fixture(scope="class")
    def trace_dir(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("cli") / "traces"
        main(["trace", "--app", "synthetic", "--np", "4",
              "--out", str(out_dir)])
        lines = (out_dir / "trace.1").read_text().splitlines()
        lines[2] = "garbage row"
        (out_dir / "trace.1").write_text("\n".join(lines) + "\n")
        return out_dir

    @pytest.mark.parametrize("case", ["garbage", "garbage-stream",
                                      "missing"])
    def test_clean_error(self, tmp_path, capsys, trace_dir, case):
        path = tmp_path / "nowhere" if case == "missing" else trace_dir
        argv = ["model", "--traces", str(path)]
        if case == "garbage-stream":
            argv.append("--stream")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro-io: error: cannot read traces {path}: ")
        assert len(err.splitlines()) == 1
        if case != "missing":
            assert "trace.1:3" in err and "garbage row" in err


class TestAppResolution:
    def test_np_threaded_into_params(self):
        _, params = _app_for("ior", 8)
        assert params.np == 8

    def test_np_threaded_for_every_np_app(self):
        import dataclasses

        for app in ("madbench2", "btio-A", "synthetic", "ior", "roms"):
            _, params = _app_for(app, 16)
            for f in dataclasses.fields(params):
                if f.name == "np":
                    assert getattr(params, "np") == 16

    def test_square_np_required_for_madbench2(self):
        with pytest.raises(SystemExit, match="square"):
            _app_for("madbench2", 12)

    def test_square_np_required_for_btio(self):
        with pytest.raises(SystemExit, match="square"):
            _app_for("btio-C", 8)

    def test_nonpositive_np_rejected(self):
        with pytest.raises(SystemExit, match="positive"):
            _app_for("synthetic", 0)

    def test_trace_honours_np(self, tmp_path, capsys):
        out_dir = tmp_path / "traces"
        assert main(["trace", "--app", "ior", "--np", "8",
                     "--out", str(out_dir)]) == 0
        assert "on 8 procs" in capsys.readouterr().out
        assert (out_dir / "trace.7").exists()
        assert not (out_dir / "trace.8").exists()


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro-io {__version__}"


class TestMetricsFlag:
    def test_trace_with_metrics_prints_exposition(self, tmp_path, capsys):
        assert main(["trace", "--app", "synthetic", "--np", "4",
                     "--out", str(tmp_path / "t"), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Collected metrics (Prometheus text format):" in out
        assert "# TYPE io_bytes_total counter" in out
        assert "engine_runs_total 1" in out
        # The flag never leaves instrumentation switched on.
        assert not obs.ACTIVE

    def test_disabled_by_default(self, tmp_path, capsys):
        assert main(["trace", "--app", "synthetic", "--np", "4",
                     "--out", str(tmp_path / "t")]) == 0
        assert "Collected metrics" not in capsys.readouterr().out
        assert not obs.ACTIVE


class TestProfile:
    def test_profile_writes_three_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "prof"
        assert main(["profile", "--app", "synthetic", "--np", "4",
                     "--config", "configuration-A",
                     "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "System Usage %" in out
        assert "Wall-clock spans" in out
        assert "Traced I/O" in out
        for line in (out_dir / "events.jsonl").read_text().splitlines():
            json.loads(line)
        doc = json.loads((out_dir / "trace.chrome.json").read_text())
        assert doc["traceEvents"]
        prom = (out_dir / "metrics.prom").read_text()
        assert "# TYPE io_operations_total counter" in prom
        assert not obs.ACTIVE


class TestCache:
    def test_stats_on_empty_store(self, tmp_path, capsys):
        assert main(["cache", "stats", "--dir", str(tmp_path / "cc")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_warm_then_stats_then_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cc")
        assert main(["cache", "warm", "--dir", cache_dir,
                     "--app", "synthetic", "--np", "4",
                     "--configs", "configuration-A"]) == 0
        out = capsys.readouterr().out
        assert "warmed" in out and "1 configurations" in out

        assert main(["cache", "stats", "--dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "schema v" in out
        assert "trace" in out and "ior" in out and "total" in out

        assert main(["cache", "clear", "--dir", cache_dir,
                     "--cache", "trace"]) == 0
        assert "cache 'trace'" in capsys.readouterr().out
        assert main(["cache", "clear", "--dir", cache_dir]) == 0
        assert "all caches" in capsys.readouterr().out
        assert main(["cache", "stats", "--dir", cache_dir]) == 0
        assert "empty" in capsys.readouterr().out

    def test_env_var_is_the_default_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcc"))
        assert main(["cache", "stats"]) == 0
        assert "envcc" in capsys.readouterr().out
