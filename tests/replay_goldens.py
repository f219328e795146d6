"""Replay the pinned CLI outputs in golden/*.json next to this file.

Each golden file is a JSON list of cases.  A case holds

- `argv`, the arguments after the command;
- `code`, the exit code;
- `stderr`, exactly;
- either `stdout`, exactly, or, for an output that runs to megabytes,
  `stdout_sha256` and `stdout_bytes`, the sha256 and length of its bytes.

Run as a script with the command that starts the CLI,

    python tests/replay_goldens.py spinhalg
    python tests/replay_goldens.py python -m spinhalg.cli

it runs every case in a subprocess of its own, stopped after TIMEOUT
seconds, prints each case whose outcome differs with the fields that
differ, and exits 1 if any does.  tests/test_cli.py replays the same cases
under pytest.  The script needs only the standard library, so it runs
where spinhalg is installed without its test extras.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
# seconds; the slowest cases, Sq^300(w40000*w30000) and the 60 x 60
# Chebyshev table, take 1.5 to 2.2 s on a 2-core Xeon
TIMEOUT = 10


def load_cases():
    """(label, case) for every case, in file and list order.  The label,
    the file's stem, the case's index and the start of its argv, names the
    case uniquely."""
    return [(f"{path.stem}[{index}] {' '.join(case['argv'])}"[:100], case)
            for path in sorted(GOLDEN.glob("*.json"))
            for index, case in enumerate(json.loads(path.read_text()))]


def outcome(case, code, stdout, stderr):
    """The case a run of case["argv"] with this exit code, stdout and
    stderr (bytes) would record, pinning stdout as the case does."""
    got = {"argv": case["argv"], "code": code, "stderr": stderr.decode()}
    if "stdout_sha256" in case:
        got["stdout_sha256"] = hashlib.sha256(stdout).hexdigest()
        got["stdout_bytes"] = len(stdout)
    else:
        got["stdout"] = stdout.decode()
    return got


def replay(command, case, env=None):
    """The outcome of running command + case["argv"] in a subprocess; a
    run past TIMEOUT records the code "timeout"."""
    try:
        done = subprocess.run([*command, *case["argv"]], env=env, capture_output=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return outcome(case, "timeout", b"", b"")
    return outcome(case, done.returncode, done.stdout, done.stderr)


def main(command):
    cases = load_cases()
    differ = 0
    for label, case in cases:
        got = replay(command, case)
        if got != case:
            differ += 1
            print(f"differs: {label}")
            for field in dict.fromkeys([*case, *got]):
                if case.get(field) != got.get(field):
                    print(f"  {field}: want {json.dumps(case.get(field))}, "
                          f"got {json.dumps(got.get(field))}")
    print(f"{len(cases) - differ} of {len(cases)} cases agree")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} COMMAND...  (spinhalg, or python -m spinhalg.cli)")
    sys.exit(main(sys.argv[1:]))
