"""Run the nilcone command line in this process and capture what it prints."""

import contextlib
import io
import os
from dataclasses import dataclass

from nilcone.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


@contextlib.contextmanager
def environment(env):
    """os.environ with env applied for the duration; a None value unsets."""
    saved = {name: os.environ.get(name) for name in env}
    try:
        for name, value in env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def invoke(args, env=None) -> Result:
    """main(args) with stdout and stderr captured; SystemExit becomes the
    exit code, as the process would report it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
          environment(env or {})):
        try:
            main(list(args))
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return Result(code, stdout.getvalue(), stderr.getvalue())
