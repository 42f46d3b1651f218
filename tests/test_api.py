"""The ``repro.api`` facade and the 2.0 removals."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api as api


class TestFacade:
    def test_every_export_resolves(self):
        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert missing == []

    def test_core_surface_is_present(self):
        for name in (
            "FD",
            "Repairer",
            "RepairConfig",
            "RepairResult",
            "CellEdit",
            "Relation",
            "Schema",
            "ValueDictionary",
            "RelationRef",
            "RunReport",
            "ALGORITHMS",
            "read_csv",
            "write_csv",
        ):
            assert name in api.__all__, name

    def test_facade_matches_package_objects(self):
        # the facade re-exports, it never wraps
        assert api.Repairer is repro.Repairer
        assert api.Relation is repro.Relation
        assert api.RepairConfig is repro.RepairConfig

    def test_version_matches_release_tag(self):
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        declared = re.search(
            r'^version = "([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        assert declared is not None
        assert repro.__version__ == declared.group(1) == "2.0.0"

    def test_end_to_end_through_the_facade(self):
        fd = api.FD.parse("K -> V")
        relation = api.Relation(
            api.Schema.of("K", "V"),
            [("a", "1"), ("a", "2"), ("b", "9")],
        )
        repairer = api.Repairer(
            [fd],
            config=api.RepairConfig(algorithm="greedy-s", thresholds=0.3),
        )
        result = repairer.repair(relation)
        assert isinstance(result, api.RepairResult)

    def test_importable_standalone(self):
        # the facade must not rely on import side effects of test setup
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.api"], capture_output=True
        )
        assert proc.returncode == 0, proc.stderr.decode()


class TestRemovedIn2:
    """The 1.x deprecation shims and detection options are gone in 2.0."""

    def test_kernel_is_not_a_config_field(self):
        with pytest.raises(TypeError):
            repro.RepairConfig(kernel="myers")

    def test_removed_join_strategy_rejected(self):
        with pytest.raises(ValueError, match=r"'indexed', 'vectorized'"):
            repro.RepairConfig(join_strategy="qgram")

    def test_cli_rejects_removed_flags(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["in.csv", "--fd", "A -> B", "--kernel", "myers"])
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["in.csv", "--fd", "A -> B", "--join-strategy", "naive"]
            )
        err = capsys.readouterr().err
        assert "'indexed'" in err and "'vectorized'" in err

    def test_legacy_spellings_rejected(self):
        fds = [repro.FD.parse("K -> V")]
        with pytest.raises(TypeError):
            repro.Repairer(fds, "greedy-m")
        with pytest.raises(TypeError):
            repro.Repairer(fds, rng=3)
        with pytest.raises(TypeError):
            repro.RepairConfig().merged(simjoin_strategy="indexed")
        assert not hasattr(repro.Relation, "record")
        assert not hasattr(repro.Relation, "from_dicts")
        assert "deprecated" not in api.__all__


class TestCliConfigNamespace:
    def test_join_strategy_flag_and_alias(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["in.csv", "--fd", "A -> B", "--join-strategy", "vectorized"]
        )
        assert args.join_strategy == "vectorized"
        # the pre-1.2 --simjoin-strategy alias is gone
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["in.csv", "--fd", "A -> B", "--simjoin-strategy", "indexed"]
            )

    def test_no_global_kernel_mutation(self):
        # Myers is the only kernel: no process-global switch, no config
        # field
        import repro.cli as cli

        assert not hasattr(cli, "set_default_kernel")
        assert "kernel" not in repro.RepairConfig().to_dict()
