"""Run the `crepant` command line in-process and capture what it writes.

`CliRunner().invoke(main, argv)` calls `main(argv, prog_name="crepant")`
with stdout and stderr redirected, and returns a `Result`.  A command ends
with SystemExit; any other exception is caught, kept in `Result.exception`
and counted as exit code 1, so a test sees a traceback as a failure rather
than as an error of its own.
"""

import io
import sys


class _Tee(io.StringIO):
    """One stream of the command that also copies into the combined one."""

    def __init__(self, combined: io.StringIO):
        super().__init__()
        self._combined = combined

    def write(self, text):
        self._combined.write(text)
        return super().write(text)


class Result:
    """What one invocation wrote and how it ended."""

    def __init__(self, stdout: str, stderr: str, output: str, exit_code: int,
                 exception: BaseException | None):
        self.stdout = stdout
        self.stderr = stderr
        self.output = output  # stdout and stderr interleaved, as on a terminal
        self.exit_code = exit_code
        self.exception = exception

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


class CliRunner:
    def invoke(self, main, args) -> Result:
        combined = io.StringIO()
        out, err = _Tee(combined), _Tee(combined)
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        exception = None
        try:
            try:
                main(list(args), prog_name="crepant")
                exit_code = 0
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
                if code != 0:
                    exception = exc
                if not isinstance(code, int):
                    print(code)
                    code = 1
                exit_code = code
            except Exception as exc:
                exception, exit_code = exc, 1
        finally:
            sys.stdout, sys.stderr = saved
        return Result(out.getvalue(), err.getvalue(), combined.getvalue(),
                      exit_code, exception)
