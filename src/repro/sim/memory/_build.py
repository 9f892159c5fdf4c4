"""Builds and loads the compiled hierarchy kernels (``_kernels.c``).

The extension is compiled with the running interpreter's own
``sysconfig`` compiler and flags, as one subprocess, into the package's
``__pycache__`` directory. ``$REPRO_KERNEL_CFLAGS`` is the one way to
add compiler flags: its words follow the interpreter's own flags (so
``-O1 -g -fsanitize=address`` overrides their optimisation level). The
build's file name carries a hash of the C source, the interpreter's
extension suffix (``EXT_SUFFIX``) and the compile command's compiler
and flag words, so an edited source, another interpreter or another flag
set builds its own copy, and an existing copy is loaded without running
the compiler. The compiler writes a temporary
file that ``os.replace`` moves into place, so processes that build at
the same time each install a complete file and all of them load one.
Installing a build unlinks the superseded builds of the same source for
the same interpreter; a process that has one loaded keeps its mapping,
and other processes' temporary files are left alone.

Loading an existing build costs one file read, a ``sysconfig`` lookup
of the compile flags, a hash and the extension's import.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shlex
import subprocess
from pathlib import Path
from types import ModuleType

from ...errors import BuildError


#: Hex digits of the source hash in a build's file name.
DIGEST_CHARS = 16

#: Environment variable whose words are added to the compile command,
#: after the interpreter's own flags (e.g. a sanitizer build's).
CFLAGS_ENV = "REPRO_KERNEL_CFLAGS"


def compiler_words() -> list[str]:
    """The compile command up to its source: the compiler and its flags."""
    import sysconfig

    def words(name: str) -> list[str]:
        return shlex.split(sysconfig.get_config_var(name) or "")

    paths = sysconfig.get_paths()
    includes = dict.fromkeys((paths["include"], paths["platinclude"]))
    return [
        *words("LDSHARED"),
        *words("CFLAGS"),
        *words("CCSHARED"),
        *(f"-I{path}" for path in includes),
        *shlex.split(os.environ.get(CFLAGS_ENV, "")),
    ]


def extension_path(source: Path, out_dir: Path) -> Path:
    """Where the build of ``source`` for this interpreter and flags lives."""
    # The first suffix is the interpreter's EXT_SUFFIX.
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    flags = "\0".join(compiler_words())
    digest = hashlib.sha256(
        source.read_bytes() + suffix.encode() + flags.encode()
    ).hexdigest()
    return out_dir / f"{source.stem}.{digest[:DIGEST_CHARS]}{suffix}"


def compile_command(source: Path, output: Path) -> list[str]:
    """One compile-and-link step with the interpreter's own toolchain."""
    return [*compiler_words(), str(source), "-o", str(output)]


def build(source: Path, target: Path) -> None:
    """Compile ``source`` into ``target`` through a temporary file.

    The temporary name is unique to this process; the compiler creates
    the file itself, so it gets the usual permissions. Once ``target``
    is in place, the other builds of ``source`` for this interpreter are
    unlinked: only names of the form ``<stem>.<digest><EXT_SUFFIX>``
    match, so another interpreter's builds and every ``*.tmp`` file of a
    concurrent builder stay.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    token = f"{os.getpid()}.{os.urandom(4).hex()}"
    tmp = target.with_name(f"{target.name}.{token}.tmp")
    command = compile_command(source, tmp)
    shown = shlex.join(command)
    try:
        try:
            proc = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise BuildError(f"could not run {shown}: {exc}") from exc
        if proc.returncode != 0:
            raise BuildError(
                f"compiling {source.name} failed (exit {proc.returncode}): "
                f"{shown}\n{proc.stdout}{proc.stderr}"
            )
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    pattern = f"{source.stem}.{'[0-9a-f]' * DIGEST_CHARS}{suffix}"
    for path in target.parent.glob(pattern):
        if path != target:
            path.unlink(missing_ok=True)


def load_extension(
    name: str, source: Path, out_dir: Path | None = None
) -> ModuleType:
    """Import the extension built from ``source``, building it first if needed.

    ``name`` is the module's dotted name; its last part must match the
    source's ``PyInit_`` function. ``out_dir`` defaults to the
    ``__pycache__`` directory beside the source.
    """
    path = extension_path(source, out_dir or source.parent / "__pycache__")
    if not path.exists():
        build(source, path)
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise BuildError(f"{path} is not loadable as an extension module")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
