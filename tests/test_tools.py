import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("benchpair", Path(__file__).resolve().parents[1] / "tools" / "benchpair.py")
benchpair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpair)


def test_src_tree_hash_of_a_plain_copy_is_gits(tmp_path):
    # a git archive of a commit has no .git, but the same src/ tree hash;
    # __pycache__/ and *.pyc are skipped in both
    repo = tmp_path / "repo"
    for rel, text in (("src/pkg/__init__.py", ""), ("src/pkg/mod.py", "x = 1\n"), ("src/pkg/sub/data.txt", "d\n"),
                      ("src/top.py", "y = 2\n"), (".gitignore", "__pycache__/\n*.pyc\n"), ("README", "r\n")):
        (repo / rel).parent.mkdir(parents=True, exist_ok=True)
        (repo / rel).write_text(text)
    (repo / "src/pkg/mod.py").chmod(0o755)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "tree"], check=True)
    (repo / "src/pkg/__pycache__").mkdir()
    (repo / "src/pkg/__pycache__/mod.cpython-311.pyc").write_bytes(b"\0")
    (repo / "src/stale.pyc").write_bytes(b"\0")
    copy = tmp_path / "copy"
    shutil.copytree(repo, copy, ignore=shutil.ignore_patterns(".git"))

    got = benchpair.src_tree_hash(repo)
    head = subprocess.run([*git, "rev-parse", "HEAD"], check=True, capture_output=True, text=True).stdout.strip()
    want = subprocess.run([*git, "rev-parse", "HEAD:src"], check=True, capture_output=True, text=True).stdout.strip()
    assert got == want
    assert benchpair.src_tree_hash(copy) == want
    assert benchpair.commit_of(repo, got) == head
    assert benchpair.commit_of(copy, got) == "not a git checkout"


def test_commit_of_raises_other_git_errors(tmp_path):
    # a checkout without a commit is a git error, not a plain copy
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    with pytest.raises(subprocess.CalledProcessError):
        benchpair.commit_of(tmp_path, "")
