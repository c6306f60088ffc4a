"""Errors raised inside pool workers reach the coordinator intact.

A pool worker ships a raised exception back by pickle.  An exception class
whose constructor cannot be replayed from its ``args`` fails to unpickle,
which kills the pool's result-handler thread and leaves ``imap_unordered``
waiting forever.  Every exception class of the package must therefore
round-trip through pickle, and a pooled run over a broken source must fail
exactly like the serial run does, in bounded time.
"""

import importlib
import os
import pickle
import pkgutil
import subprocess
import sys

import repro
from repro.frontend.lexer import LexerError, Token
from repro.frontend.parser import ParseError
from repro.verify.diagnostics import VerificationReport, VerifyError

BAD_SOURCE = "int f(int *a) { return a[0] +; }\n"
GOOD_SOURCE = ("void g(int* v, int N) { int i; "
               "for (i = 0; i < N; i++) v[i] = i; }\n")


def _report():
    report = VerificationReport()
    report.add("verdict", "error", "f", "p", "forged NoAlias")
    return report


#: sample arguments for every exception class with its own constructor.
CUSTOM_ARGUMENTS = {
    ParseError: ("expected an expression", Token("op", ";", 1, 30)),
    LexerError: ("unexpected character '@'", 3, 7),
    VerifyError: (_report(), "REPRO_VERIFY=post"),
}


def _repro_exception_classes():
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        if module_info.name.endswith("__main__"):
            continue
        importlib.import_module(module_info.name)
    seen = {}
    pending = [Exception]
    while pending:
        for subclass in pending.pop().__subclasses__():
            pending.append(subclass)
            if subclass.__module__.split(".")[0] == "repro":
                seen[subclass.__qualname__, subclass.__module__] = subclass
    return list(seen.values())


def _comparable(value):
    return value.as_dict() if hasattr(value, "as_dict") else value


def test_every_repro_exception_round_trips_through_pickle():
    classes = _repro_exception_classes()
    assert ParseError in classes and LexerError in classes
    assert VerifyError in classes
    for cls in classes:
        own_init = "__init__" in vars(cls)
        assert not own_init or cls in CUSTOM_ARGUMENTS, \
            "add sample arguments for {}".format(cls.__qualname__)
        error = cls(*CUSTOM_ARGUMENTS.get(cls, ("boom",)))
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls
        assert str(copy) == str(error)
        assert copy.args == error.args
        assert ({name: _comparable(value) for name, value in vars(copy).items()}
                == {name: _comparable(value)
                    for name, value in vars(error).items()}), cls


def _run_eval(tmp_path, workers):
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(repo_root, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    (tmp_path / "bad.c").write_text(BAD_SOURCE)
    (tmp_path / "good.c").write_text(GOOD_SOURCE)
    return subprocess.run(
        [sys.executable, "-m", "repro", "eval", "--workers", str(workers),
         "bad.c", "good.c"],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
        timeout=60)


def test_pooled_run_with_parse_error_fails_like_serial(tmp_path):
    serial = _run_eval(tmp_path, 0)
    pooled = _run_eval(tmp_path, 2)  # used to hang: bounded by the timeout
    assert serial.returncode == 2
    assert pooled.returncode == serial.returncode
    last_line = serial.stderr.strip().splitlines()[-1]
    assert last_line.startswith("error: expected an expression at line 1")
    assert pooled.stderr.strip().splitlines()[-1] == last_line
    assert "Traceback" not in serial.stderr + pooled.stderr
