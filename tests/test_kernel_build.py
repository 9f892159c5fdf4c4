"""Building the compiled hierarchy kernels on first import.

``repro.sim.memory._build`` compiles ``_kernels.c`` with the
interpreter's own toolchain into ``__pycache__``, once per source and
interpreter: a fresh checkout builds on its first import, processes that
import at the same time all succeed, a later import runs no compiler,
a new build removes the one it supersedes (but no other process's
files), and a failed compile is one error carrying the command and its
output.
"""

import importlib.machinery
import os
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import repro
from repro.errors import BuildError
from repro.sim.memory import _build, hierarchy
from repro.sim.memory.hierarchy import MemoryConfig, MemorySystem
from repro.sim.stats import RunStats

PACKAGE = Path(repro.__file__).resolve().parent
KERNEL_SOURCE = PACKAGE / "sim" / "memory" / "_kernels.c"


def _fresh_checkout(tmp_path: Path) -> Path:
    """A copy of the package source with no ``__pycache__``."""
    root = tmp_path / "src"
    shutil.copytree(
        PACKAGE, root / "repro", ignore=shutil.ignore_patterns("__pycache__")
    )
    return root


def _import_repro(root: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import repro.sim.memory.hierarchy as h; print(h._kernels.__file__)",
        ],
        env={**os.environ, "PYTHONPATH": str(root)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_fresh_checkout_builds_once_and_concurrent_imports_succeed(tmp_path):
    root = _fresh_checkout(tmp_path)
    cache = root / "repro" / "sim" / "memory" / "__pycache__"
    # Two processes import at once, each finding no build.
    procs = [_import_repro(root) for _ in range(2)]
    outs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err
    built = sorted(cache.glob("_kernels.*"))
    assert [Path(out.strip()) for out, _ in outs] == [built[0]] * 2
    assert len(built) == 1, built  # no temporary file left behind
    stat = built[0].stat()
    # A later import loads the build: no compiler runs, nothing is replaced.
    proc = _import_repro(root)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert Path(out.strip()) == built[0]
    after = built[0].stat()
    assert (after.st_ino, after.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)


def test_load_compiles_only_when_the_build_is_missing(tmp_path, monkeypatch):
    source = tmp_path / "_kernels.c"
    shutil.copy(KERNEL_SOURCE, source)
    runs = []
    real_run = subprocess.run

    def counting_run(command, **kwargs):
        runs.append(command)
        return real_run(command, **kwargs)

    monkeypatch.setattr(_build.subprocess, "run", counting_run)
    first = _build.load_extension("probe._kernels", source, tmp_path / "out")
    second = _build.load_extension("probe._kernels", source, tmp_path / "out")
    assert len(runs) == 1
    assert first.__file__ == second.__file__
    assert callable(first.demand_lines) and callable(first.prefetch_lines)
    # An edited source is another build.
    source.write_text(source.read_text() + "\n/* edited */\n")
    _build.load_extension("probe._kernels", source, tmp_path / "out")
    assert len(runs) == 2


def _kernel_outputs(kernels) -> tuple:
    """One fixed demand and prefetch call through ``kernels``, fresh state."""
    stats = RunStats()
    memory = MemorySystem(MemoryConfig().with_nsb(), stats)
    ctx = kernels.check_context(memory._kernel_ctx)
    lines = [7, 300, 7, 4100, 300, 9000]
    demand = kernels.demand_lines(ctx, 0, 2, lines, True, None, None)
    spans = kernels.demand_lines(ctx, 40, 2, [8192, 300], True, None, [3, 2])
    prefetch = kernels.prefetch_lines(ctx, 50, range(4096, 4112), True, 4)
    kernels.fold_counters(ctx)
    return demand, spans, prefetch, asdict(stats)


def test_an_edited_source_replaces_its_build_and_the_old_one_keeps_running(tmp_path):
    source = tmp_path / "_kernels.c"
    shutil.copy(KERNEL_SOURCE, source)
    out_dir = tmp_path / "out"
    old = _build.load_extension("probe._kernels", source, out_dir)
    source.write_text(source.read_text() + "\n/* edited */\n")
    new = _build.load_extension("probe._kernels", source, out_dir)
    # Exactly one build is left: the edited source's.
    assert list(out_dir.iterdir()) == [Path(new.__file__)]
    assert not Path(old.__file__).exists()
    # A module loaded from the unlinked build keeps its mapping: its
    # kernels still run, and agree with the package's own.
    assert _kernel_outputs(old) == _kernel_outputs(hierarchy._kernels)


def test_a_new_build_leaves_other_builders_files_alone(tmp_path):
    source = tmp_path / "_kernels.c"
    shutil.copy(KERNEL_SOURCE, source)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = _build.extension_path(source, out_dir)
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    # A concurrent builder's temporary file (of another source), another
    # interpreter's build, and a superseded build of this interpreter.
    stale = out_dir / f"_kernels.{'0' * 16}{suffix}"
    temp = stale.with_name(f"{stale.name}.12345.cafef00d.tmp")
    other = out_dir / f"_kernels.{'0' * 16}.cpython-39-other.so"
    for path in (stale, temp, other):
        path.write_bytes(b"")
    module = _build.load_extension("probe._kernels", source, out_dir)
    assert Path(module.__file__) == target
    assert sorted(out_dir.iterdir()) == sorted([target, temp, other])


def test_compile_failure_is_one_error_with_command_and_output(tmp_path):
    source = tmp_path / "_kernels.c"
    source.write_text("this is not C;\n")
    out_dir = tmp_path / "out"
    with pytest.raises(BuildError) as info:
        _build.load_extension("probe._kernels", source, out_dir)
    message = str(info.value)
    command = _build.compile_command(source, Path("OUT"))
    assert " ".join(command[:1]) in message  # the compiler
    assert str(source) in message
    assert "error" in message.split("\n", 1)[1]  # the compiler's own output
    assert list(out_dir.iterdir()) == []


def test_each_flag_set_gets_its_own_build(tmp_path, monkeypatch):
    source = tmp_path / "_kernels.c"
    shutil.copy(KERNEL_SOURCE, source)
    monkeypatch.delenv(_build.CFLAGS_ENV, raising=False)
    release = _build.extension_path(source, tmp_path)
    monkeypatch.setenv(_build.CFLAGS_ENV, "-O1 -g")
    debug = _build.extension_path(source, tmp_path)
    # The extra words follow the interpreter's own flags, and the
    # build's file name hashes them but not the compiler's output path.
    command = _build.compile_command(source, Path("OUT"))
    assert command[-5:] == ["-O1", "-g", str(source), "-o", "OUT"]
    assert _build.extension_path(source, tmp_path) == debug
    monkeypatch.setenv(_build.CFLAGS_ENV, "-O1 -g -fsanitize=undefined")
    sanitized = _build.extension_path(source, tmp_path)
    assert len({release, debug, sanitized}) == 3
    assert all(path.parent == tmp_path for path in (release, debug, sanitized))
