"""Mutation fuzzing of every project input surface.

Each test mutates one file of a real project — APV's dumped
``classes.smali`` and ``res/values/ids.xml``, and notepad's source, a
layout, a menu and the manifest — by seeded line and byte edits. Every
mutant must either load, validate and analyze to a converged result,
or raise :class:`repro.errors.ReproError`; any other exception is a
bug (an untyped crash escaping the loader or the analysis). An error
located in the mutated file must point at a line and column inside it.
"""

import os
import shutil
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import analyze
from repro.corpus.apps import spec_by_name
from repro.corpus.export import dump_app
from repro.corpus.generator import generate_app
from repro.errors import ReproError
from repro.frontend.loader import load_app_from_dir
from repro.hierarchy.cha import ClassHierarchy

NOTEPAD = os.path.join(
    os.path.dirname(__file__), "..", "examples", "projects", "notepad"
)

# Bytes a mutation may write: syntax that matters to smali, the source
# language and XML, plus bytes that are not UTF-8.
_BYTES = st.sampled_from(
    [b"<", b">", b"/", b'"', b"=", b";", b"(", b")", b"{", b"}", b":", b".",
     b",", b"L", b"@", b"#", b" ", b"\n", b"0", b"x", b"\xff", b"\xc3"]
)

# One edit: (kind, position, second position, payload). Positions are
# taken modulo the file's length in lines or bytes.
_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["drop-line", "dup-line", "swap-lines", "set-byte", "insert-byte", "drop-byte"]
        ),
        st.integers(min_value=0, max_value=1 << 16),
        st.integers(min_value=0, max_value=1 << 16),
        _BYTES,
    ),
    min_size=1,
    max_size=3,
)


def _mutate(data: bytes, edits) -> bytes:
    for kind, i, j, payload in edits:
        if "line" in kind:
            lines = data.split(b"\n")
            i, j = i % len(lines), j % len(lines)
            if kind == "drop-line":
                del lines[i]
            elif kind == "dup-line":
                lines.insert(i, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            data = b"\n".join(lines)
        elif not data:
            data = payload
        else:
            i %= len(data)
            if kind == "set-byte":
                data = data[:i] + payload + data[i + 1:]
            elif kind == "insert-byte":
                data = data[:i] + payload + data[i:]
            else:
                data = data[:i] + data[i + 1:]
    return data


def _check(project: str, relpath: str, edits) -> None:
    """Load, validate and analyze ``project`` with ``relpath`` mutated;
    only a converged result or a ReproError is acceptable."""
    path = os.path.join(project, relpath)
    with open(path, "rb") as f:
        original = f.read()
    mutated = _mutate(original, edits)
    try:
        with open(path, "wb") as f:
            f.write(mutated)
        try:
            app = load_app_from_dir(project)
            app.validate()
            result = analyze(app)
        except ReproError as exc:
            if exc.path == relpath and exc.line:
                _check_location(mutated.decode("utf-8", "replace"), exc)
            return
        assert result.converged
    finally:
        with open(path, "wb") as f:
            f.write(original)


def _check_location(text: str, exc: ReproError) -> None:
    """``exc`` points into ``text``: an existing line, or the one after
    the last (end of file after a trailing newline), and a column at
    most one past the end of its line."""
    lines = text.splitlines()
    assert 1 <= exc.line <= len(lines) + 1, str(exc)
    if exc.column and exc.line <= len(lines):
        assert exc.column <= len(lines[exc.line - 1]) + 1, str(exc)


@pytest.fixture(scope="module")
def apv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "apv")
    dump_app(generate_app(spec_by_name("APV")), path)
    return path


@pytest.fixture(scope="module")
def notepad(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "notepad")
    shutil.copytree(NOTEPAD, path)
    return path


def _fuzz(max_examples: int):
    return settings(
        derandomize=True,
        max_examples=max_examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@_fuzz(40)
@given(edits=_MUTATIONS)
def test_smali(apv, edits):
    _check(apv, "classes.smali", edits)


@_fuzz(20)
@given(edits=_MUTATIONS)
def test_ids_xml(apv, edits):
    _check(apv, "res/values/ids.xml", edits)


@pytest.mark.parametrize(
    "relpath",
    [
        "src/EditNoteActivity.alite",
        "res/layout/notes_list.xml",
        "res/menu/list_actions.xml",
        "AndroidManifest.xml",
    ],
)
@_fuzz(80)
@given(edits=_MUTATIONS)
def test_notepad(notepad, relpath, edits):
    _check(notepad, relpath, edits)


# Adversarial inputs that no random edit is likely to produce: each must
# end in a ReproError, not in a hang or a crash.
CYCLES = {
    "two-classes": "class CycA extends CycB { }\nclass CycB extends CycA { }\n",
    "self": "class CycA extends CycA { }\n",
    "behind-a-subclass": (
        "class Leaf extends CycA { }\n"
        "class CycA extends CycB { }\nclass CycB extends CycA { }\n"
    ),
}


@pytest.mark.parametrize("source", list(CYCLES.values()), ids=list(CYCLES))
def test_cyclic_inheritance_is_rejected(notepad, source):
    path = os.path.join(notepad, "src", "Cycle.alite")
    with open(path, "w", encoding="utf-8") as f:
        f.write("package cyc;\n\n" + source)
    try:
        with pytest.raises(ReproError, match="cyclic inheritance: cyc.CycA extends"):
            load_app_from_dir(notepad).validate()
    finally:
        os.remove(path)


def test_cyclic_inheritance_in_smali_is_rejected(apv):
    path = os.path.join(apv, "classes.smali")
    with open(path, "rb") as f:
        original = f.read()
    cycle = (
        "\n.class Lgen/apv/CycA;\n.super Lgen/apv/CycB;\n.end class\n"
        "\n.class Lgen/apv/CycB;\n.super Lgen/apv/CycA;\n.end class\n"
    )
    try:
        with open(path, "wb") as f:
            f.write(original + cycle.encode("utf-8"))
        with pytest.raises(ReproError, match="gen.apv.CycA extends gen.apv.CycB"):
            load_app_from_dir(apv).validate()
    finally:
        with open(path, "wb") as f:
            f.write(original)


def _chain_app(depth):
    """``app.C0`` declares ``m()``; each ``app.C<i>`` extends
    ``app.C<i-1>``; the launcher allocates the deepest class and calls
    ``m()`` through a ``C0`` receiver."""
    from repro.app import AndroidApp
    from repro.ir.builder import ProgramBuilder
    from repro.platform.classes import install_platform
    from repro.resources.manifest import Manifest
    from repro.resources.rtable import ResourceTable

    pb = ProgramBuilder()
    install_platform(pb.program)
    with pb.clazz("app.C0") as c:
        with c.method("m") as m:
            m.ret()
    for i in range(1, depth):
        with pb.clazz(f"app.C{i}", extends=f"app.C{i - 1}"):
            pass
    with pb.clazz("app.Main", extends="android.app.Activity") as c:
        with c.method("onCreate") as m:
            x = m.new(f"app.C{depth - 1}", lhs=m.local("x", "app.C0"))
            m.invoke(x, "m", [])
            m.ret()
    resources = ResourceTable()
    resources.freeze_ids()
    manifest = Manifest(package="app")
    manifest.add_activity("app.Main", launcher=True)
    return AndroidApp(name="chain", program=pb.build(), resources=resources, manifest=manifest)


def test_deep_extends_chain_is_linear():
    """A 3,000-deep ``extends`` chain. Materialising every class's
    supertypes made this quadratic: about 10 s for the hierarchy plus
    the analysis on a 2-vCPU host, where it now takes about 0.02 s."""
    depth = 3000
    app = _chain_app(depth)
    started = time.perf_counter()
    hierarchy = ClassHierarchy(app.program)
    result = analyze(app)
    elapsed = time.perf_counter() - started
    assert result.converged
    assert hierarchy.is_subtype(f"app.C{depth - 1}", "app.C0")
    assert not hierarchy.is_subtype("app.C0", f"app.C{depth - 1}")
    assert [str(t.sig) for t in hierarchy.cha_targets("app.C0", "m", 0)] == ["app.C0.m/0"]
    assert len(hierarchy.subtypes("app.C0")) == depth
    assert elapsed < 2.0, f"{elapsed:.2f} s"
