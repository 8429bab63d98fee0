"""Tests for the experiment runner behind the ``repro`` command."""

import importlib.util

import pytest

from repro.cli import main
from repro.experiments.runner import build_parser


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["figure8"])
        assert args.experiments == ["figure8"]
        assert args.instructions > 0
        assert args.benchmarks is None

    def test_multiple_experiments(self):
        args = build_parser().parse_args(["figure2", "figure4"])
        assert args.experiments == ["figure2", "figure4"]

    def test_repro_is_the_only_entry_point(self):
        assert build_parser().prog == "repro"
        assert importlib.util.find_spec("repro.experiments.__main__") is None


class TestMain:
    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["not_a_figure"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_runs_small_experiment(self, capsys, tmp_path):
        code = main(
            [
                "figure8",
                "--instructions",
                "1500",
                "--benchmarks",
                "gcc",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert (tmp_path / "figure8.txt").exists()

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            main(["figure8", "--benchmarks", "nonesuch"])


class TestSeededAndJson:
    def test_seeds_flag_averages(self, capsys, tmp_path):
        code = main(
            [
                "figure8",
                "--instructions",
                "1200",
                "--benchmarks",
                "gcc",
                "--seeds",
                "2",
                "--out",
                str(tmp_path),
                "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean of 2 seeds" in out
        assert (tmp_path / "figure8.json").exists()

    def test_json_payload_valid(self, tmp_path):
        import json

        main(
            [
                "figure8",
                "--instructions",
                "1000",
                "--benchmarks",
                "gcc",
                "--out",
                str(tmp_path),
                "--json",
            ]
        )
        payload = json.loads((tmp_path / "figure8.json").read_text())
        assert payload["figure_id"] == "Figure 8"
        assert len(payload["rows"]) == 21


class TestSeededErrors:
    """``--seeds N`` handles a bad spec and ``--fail-fast`` like one seed."""

    def _spec(self, tmp_path, **fields):
        import json

        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "seeded",
                    "instructions": 300,
                    "workloads": [{"kernel": "gzip"}, {"kernel": "mcf"}],
                    "sweeps": [{"machines": [{"clusters": 2}], "policies": ["l"]}],
                    **fields,
                }
            )
        )
        return str(path)

    def test_figure_link_mismatch_is_a_bad_spec(self, tmp_path, capsys):
        spec = self._spec(tmp_path, figure="figure14")
        assert main(["--spec", spec, "--seeds", "2", "--no-cache"]) == 2
        assert "bad spec:" in capsys.readouterr().err

    def test_fail_fast_exits_1(self, tmp_path, capsys):
        from repro.testing import chaos

        spec = self._spec(tmp_path)
        chaos.install(lambda job, attempt: "error" if job.kernel == "mcf" else None)
        try:
            code = main(
                ["--spec", spec, "--seeds", "2", "--no-cache",
                 "--fail-fast", "--max-retries", "0"]
            )
        finally:
            chaos.uninstall()
        assert code == 1
        assert "fail-fast:" in capsys.readouterr().err
