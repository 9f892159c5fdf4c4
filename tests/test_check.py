"""The ``repro check`` static-analysis subsystem.

Each rule is exercised against a fixture corpus: a *bad* snippet that
must produce the rule's finding and a *good* twin that must not. The
snippets are written under a ``src/repro/...`` mirror in tmp_path so the
logical-path scoping behaves exactly as it does over the real tree.
The suite ends with the self-hosting gate: ``repro check src`` over this
repository must exit 0 — the analyzer landed with a clean codebase and
CI keeps it that way.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.check import CHECK_RULES, PARSE_ERROR_CODE, CheckConfig, run_check
from repro.check.base import logical_path
from repro.errors import ConfigError

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_module(tmp_path: Path, rel: str, text: str) -> Path:
    """Write a fixture snippet at its logical location under tmp_path."""
    path = tmp_path / "src" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def codes_for(tmp_path: Path, rel: str, text: str) -> list:
    path = write_module(tmp_path, rel, text)
    report = run_check([path])
    return [f.code for f in report.findings]


class TestRegistry:
    def test_initial_rule_pack_is_registered(self):
        codes = sorted(CHECK_RULES.names())
        assert len(codes) >= 6
        assert codes[:6] == [
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR004",
            "RPR005",
            "RPR006",
        ]

    def test_rules_carry_catalog_metadata(self):
        for code in CHECK_RULES.names():
            rule = CHECK_RULES.get(code)
            assert rule.code == code
            assert rule.name and rule.description and rule.rationale
            assert rule.severity in ("warning", "error")

    def test_unknown_rule_selection_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            run_check([tmp_path], rule_codes=["RPR999"])


class TestLogicalPath:
    def test_strips_any_prefix_down_to_package_root(self):
        assert (
            logical_path(Path("/x/y/src/repro/runner/queue.py"))
            == "repro/runner/queue.py"
        )
        assert logical_path(Path("src/repro/client.py")) == "repro/client.py"

    def test_path_outside_package_falls_back_to_filename(self):
        assert logical_path(Path("/etc/passwd.py")) == "passwd.py"


class TestRPR001AtomicWrites:
    BAD = (
        "import json\n"
        "def save(path, doc):\n"
        "    with open(path, 'w') as handle:\n"
        "        json.dump(doc, handle)\n"
    )
    GOOD = (
        "from .cache import atomic_write_json\n"
        "def save(path, doc):\n"
        "    atomic_write_json(path, doc)\n"
    )

    def test_raw_json_dump_in_queue_module_is_flagged(self, tmp_path):
        codes = codes_for(tmp_path, "repro/runner/queue.py", self.BAD)
        assert "RPR001" in codes

    def test_atomic_write_helper_is_clean(self, tmp_path):
        codes = codes_for(tmp_path, "repro/runner/queue.py", self.GOOD)
        assert "RPR001" not in codes

    def test_atomic_write_json_itself_is_exempt(self, tmp_path):
        body = (
            "import json, os\n"
            "def atomic_write_json(path, doc):\n"
            "    fd, tmp = 1, 'x'\n"
            "    with os.fdopen(fd, 'w') as handle:\n"
            "        json.dump(doc, handle, sort_keys=True, allow_nan=False)\n"
            "    os.replace(tmp, path)\n"
        )
        codes = codes_for(tmp_path, "repro/runner/cache.py", body)
        assert "RPR001" not in codes

    def test_write_text_of_json_dumps_is_flagged(self, tmp_path):
        body = (
            "import json\n"
            "def save(path, doc):\n"
            "    path.write_text(json.dumps(doc, sort_keys=True, "
            "allow_nan=False))\n"
        )
        codes = codes_for(tmp_path, "repro/runner/worker.py", body)
        assert "RPR001" in codes

    def test_out_of_scope_module_is_not_flagged(self, tmp_path):
        codes = codes_for(tmp_path, "repro/analysis/export.py", self.BAD)
        assert "RPR001" not in codes


class TestRPR002CanonicalJson:
    def test_unsorted_nan_accepting_dumps_is_flagged(self, tmp_path):
        body = "import json\ndef enc(b):\n    return json.dumps(b)\n"
        codes = codes_for(tmp_path, "repro/client.py", body)
        assert codes == ["RPR002"]

    def test_canonical_dumps_is_clean(self, tmp_path):
        body = (
            "import json\n"
            "def enc(b):\n"
            "    return json.dumps(b, sort_keys=True, allow_nan=False)\n"
        )
        codes = codes_for(tmp_path, "repro/client.py", body)
        assert codes == []

    def test_message_names_only_the_missing_flags(self, tmp_path):
        body = "import json\ndef enc(b):\n    return json.dumps(b, sort_keys=True)\n"
        path = write_module(tmp_path, "repro/client.py", body)
        report = run_check([path])
        assert len(report.findings) == 1
        assert "allow_nan=False" in report.findings[0].message
        assert "sort_keys" not in report.findings[0].message


class TestRPR003Determinism:
    def test_time_import_in_spec_is_flagged(self, tmp_path):
        body = "import time\nNOW = time.time\n"
        codes = codes_for(tmp_path, "repro/spec/serde.py", body)
        assert "RPR003" in codes

    def test_uuid_from_import_is_flagged(self, tmp_path):
        body = "from uuid import uuid4\n"
        codes = codes_for(tmp_path, "repro/spec/system.py", body)
        assert "RPR003" in codes

    def test_set_iteration_in_hashed_path_is_flagged(self, tmp_path):
        body = "def keys(d):\n    return [k for k in set(d)]\n"
        codes = codes_for(tmp_path, "repro/runner/plan.py", body)
        assert "RPR003" in codes

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        body = "def keys(d):\n    return [k for k in sorted(set(d))]\n"
        codes = codes_for(tmp_path, "repro/runner/plan.py", body)
        assert "RPR003" not in codes

    def test_time_import_outside_hashed_paths_is_fine(self, tmp_path):
        body = "import time\nNOW = time.time\n"
        codes = codes_for(tmp_path, "repro/runner/worker.py", body)
        assert "RPR003" not in codes


class TestRPR004AsyncBlocking:
    def test_time_sleep_in_server_coroutine_is_flagged(self, tmp_path):
        body = "import time\nasync def handle():\n    time.sleep(1)\n"
        codes = codes_for(tmp_path, "repro/server/http.py", body)
        assert "RPR004" in codes

    def test_sync_open_in_coroutine_is_flagged(self, tmp_path):
        body = (
            "async def handle(path):\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n"
        )
        codes = codes_for(tmp_path, "repro/server/engine.py", body)
        assert "RPR004" in codes

    def test_asyncio_sleep_is_clean(self, tmp_path):
        body = "import asyncio\nasync def handle():\n    await asyncio.sleep(1)\n"
        codes = codes_for(tmp_path, "repro/server/http.py", body)
        assert "RPR004" not in codes

    def test_nested_sync_def_is_not_the_event_loop(self, tmp_path):
        body = (
            "import time\n"
            "async def handle(loop):\n"
            "    def work():\n"
            "        time.sleep(1)\n"
            "    await loop.run_in_executor(None, work)\n"
        )
        codes = codes_for(tmp_path, "repro/server/http.py", body)
        assert "RPR004" not in codes

    def test_sync_def_in_server_is_fine(self, tmp_path):
        body = "import time\ndef tick():\n    time.sleep(1)\n"
        codes = codes_for(tmp_path, "repro/server/http.py", body)
        assert "RPR004" not in codes


class TestRPR005SilentExcept:
    def test_swallowing_broad_except_is_flagged(self, tmp_path):
        body = (
            "def load(path):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        codes = codes_for(tmp_path, "repro/runner/cache.py", body)
        assert "RPR005" in codes

    def test_bare_except_returning_none_is_flagged(self, tmp_path):
        body = (
            "def load(path):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except:\n"
            "        return None\n"
        )
        codes = codes_for(tmp_path, "repro/session.py", body)
        assert "RPR005" in codes

    def test_narrow_except_is_clean(self, tmp_path):
        body = (
            "def load(path):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except (OSError, ValueError):\n"
            "        return None\n"
        )
        codes = codes_for(tmp_path, "repro/runner/cache.py", body)
        assert "RPR005" not in codes

    def test_broad_except_that_reraises_is_clean(self, tmp_path):
        body = (
            "def load(path):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except Exception:\n"
            "        raise\n"
        )
        codes = codes_for(tmp_path, "repro/runner/cache.py", body)
        assert "RPR005" not in codes

    def test_broad_except_that_logs_is_clean(self, tmp_path):
        body = (
            "def load(path, log):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except Exception as exc:\n"
            "        log(str(exc))\n"
            "        return None\n"
        )
        codes = codes_for(tmp_path, "repro/runner/cache.py", body)
        assert "RPR005" not in codes


class TestRPR006QueueRenames:
    def test_shutil_move_in_queue_is_flagged(self, tmp_path):
        body = "import shutil\ndef claim(src, dst):\n    shutil.move(src, dst)\n"
        codes = codes_for(tmp_path, "repro/runner/queue.py", body)
        assert "RPR006" in codes

    def test_copyfile_in_queue_is_flagged(self, tmp_path):
        body = (
            "import shutil, os\n"
            "def claim(src, dst):\n"
            "    shutil.copyfile(src, dst)\n"
            "    os.unlink(src)\n"
        )
        codes = codes_for(tmp_path, "repro/runner/queue.py", body)
        assert "RPR006" in codes

    def test_os_replace_is_clean(self, tmp_path):
        body = "import os\ndef claim(src, dst):\n    os.replace(src, dst)\n"
        codes = codes_for(tmp_path, "repro/runner/queue.py", body)
        assert "RPR006" not in codes

    def test_shutil_elsewhere_is_out_of_scope(self, tmp_path):
        body = "import shutil\ndef copy(src, dst):\n    shutil.copyfile(src, dst)\n"
        codes = codes_for(tmp_path, "repro/runner/cache.py", body)
        assert "RPR006" not in codes


class TestSuppression:
    BAD_DUMPS = "import json\ndef enc(b):\n    return json.dumps(b)"

    def test_same_line_suppression(self, tmp_path):
        body = (
            "import json\n"
            "def enc(b):\n"
            "    return json.dumps(b)  # repro: ignore[RPR002] wire order\n"
        )
        path = write_module(tmp_path, "repro/client.py", body)
        report = run_check([path])
        assert report.findings == []
        assert report.suppressed == 1

    def test_preceding_line_suppression(self, tmp_path):
        body = (
            "import json\n"
            "def enc(b):\n"
            "    # repro: ignore[RPR002] columns keep wire order\n"
            "    return json.dumps(b)\n"
        )
        path = write_module(tmp_path, "repro/client.py", body)
        report = run_check([path])
        assert report.findings == []
        assert report.suppressed == 1

    def test_suppression_is_per_code(self, tmp_path):
        body = (
            "import json\n"
            "def enc(b):\n"
            "    return json.dumps(b)  # repro: ignore[RPR005]\n"
        )
        path = write_module(tmp_path, "repro/client.py", body)
        report = run_check([path])
        assert [f.code for f in report.findings] == ["RPR002"]
        assert report.suppressed == 0

    def test_multiple_codes_in_one_comment(self, tmp_path):
        body = (
            "import json\n"
            "def enc(b):\n"
            "    return json.dumps(b)  # repro: ignore[RPR002, RPR005]\n"
        )
        path = write_module(tmp_path, "repro/client.py", body)
        report = run_check([path])
        assert report.findings == []

    def test_config_wide_ignore(self, tmp_path):
        path = write_module(tmp_path, "repro/client.py", self.BAD_DUMPS)
        config = CheckConfig(ignore_codes=frozenset({"RPR002"}))
        report = run_check([path], config=config)
        assert report.findings == []
        assert report.suppressed == 1

    def test_config_exclude_pattern(self, tmp_path):
        path = write_module(tmp_path, "repro/client.py", self.BAD_DUMPS)
        config = CheckConfig(exclude=("repro/client.py",))
        report = run_check([path], config=config)
        assert report.files_checked == 0
        assert report.findings == []


class TestEngine:
    def test_unparseable_file_is_reported_not_crashed(self, tmp_path):
        path = write_module(tmp_path, "repro/client.py", "def broken(:\n")
        report = run_check([path])
        assert [f.code for f in report.findings] == [PARSE_ERROR_CODE]
        assert report.exit_code == 1

    def test_missing_path_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            run_check([tmp_path / "nope"])

    def test_rule_selection_restricts_the_pass(self, tmp_path):
        body = (
            "import json, shutil\n"
            "def move(src, dst):\n"
            "    shutil.move(src, dst)\n"
            "def enc(b):\n"
            "    return json.dumps(b)\n"
        )
        path = write_module(tmp_path, "repro/runner/queue.py", body)
        report = run_check([path], rule_codes=["RPR006"])
        assert [f.code for f in report.findings] == ["RPR006"]

    def test_findings_are_sorted_and_counted(self, tmp_path):
        write_module(
            tmp_path,
            "repro/runner/queue.py",
            "import shutil\ndef c(s, d):\n    shutil.move(s, d)\n",
        )
        write_module(
            tmp_path,
            "repro/client.py",
            "import json\ndef enc(b):\n    return json.dumps(b)\n",
        )
        report = run_check([tmp_path])
        assert report.files_checked == 2
        paths = [f.path for f in report.findings]
        assert paths == sorted(paths)


class TestCli:
    def test_json_output_shape(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "repro/client.py",
            "import json\ndef enc(b):\n    return json.dumps(b)\n",
        )
        rc = cli_main(["check", "--json", str(tmp_path)])
        document = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert set(document) == {
            "files_checked",
            "findings",
            "rules",
            "suppressed",
        }
        (finding,) = document["findings"]
        assert set(finding) == {
            "code",
            "message",
            "path",
            "line",
            "col",
            "severity",
        }
        assert finding["code"] == "RPR002"
        assert finding["line"] == 3

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_module(tmp_path, "repro/client.py", "X = 1\n")
        rc = cli_main(["check", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 finding(s)" in out

    def test_human_output_is_path_line_col_code(self, tmp_path, capsys):
        path = write_module(
            tmp_path,
            "repro/client.py",
            "import json\ndef enc(b):\n    return json.dumps(b)\n",
        )
        rc = cli_main(["check", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert f"{path}:3:" in out
        assert "RPR002" in out

    def test_rule_flag_selects_one_rule(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "repro/client.py",
            "import json\ndef enc(b):\n    return json.dumps(b)\n",
        )
        rc = cli_main(["check", "--rule", "RPR006", str(tmp_path)])
        assert rc == 0

    def test_unknown_rule_is_a_clean_cli_error(self, tmp_path, capsys):
        rc = cli_main(["check", "--rule", "RPR999", str(tmp_path)])
        assert rc == 2
        assert "RPR999" in capsys.readouterr().err

    def test_list_renders_the_catalog(self, capsys):
        rc = cli_main(["check", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        for code in CHECK_RULES.names():
            assert code in out


class TestSelfHosted:
    def test_repro_check_src_is_clean(self, capsys):
        """The hard gate: the analyzer passes over its own repository."""
        rc = cli_main(["check", str(REPO_ROOT / "src")])
        out = capsys.readouterr().out
        assert rc == 0, out

    def test_pyproject_wires_mypy_and_check(self):
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            document = tomllib.load(handle)
        assert "mypy" in document["tool"]
        overrides = document["tool"]["mypy"]["overrides"]
        strict = [o for o in overrides if "repro.spec" in o.get("module", ())]
        assert strict and strict[0]["disallow_untyped_defs"] is True
        assert "repro-check" in document["tool"]

    def test_mypy_strict_core_passes(self):
        """Clean strict pass on the serialization core (skips if no mypy)."""
        mypy_api = pytest.importorskip("mypy.api")
        stdout, stderr, rc = mypy_api.run(
            [
                "--config-file",
                str(REPO_ROOT / "pyproject.toml"),
                "-p",
                "repro",
            ]
        )
        assert rc == 0, stdout + stderr
