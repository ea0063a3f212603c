"""Fixture-based coverage for the reprolint rules (the ones listed by
``repro lint --list-rules``).

Every rule has at least one *bad* fixture (a snippet the rule must
flag) and one *good* fixture (a snippet it must leave alone); the
meta-test at the bottom enforces that pairing so a new rule cannot
land without fixtures.  Snippets are linted in-memory through
``repro.lint.lint_source`` at a path inside the rule's enforcement
scope.  The dogfood test then pins the real tree at zero findings.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (default_rules, find_loop_dispatch, lint_paths,
                        lint_source)
from repro.lint.rules import EnvRegistryRule

REPO = Path(__file__).resolve().parent.parent
ALL_CODES = [rule.code for rule in default_rules()]


def engine_class(hot="pass", vec="pass", init_extra=""):
    """A minimal class exhibiting the scalar/vector backend dispatch
    that ``find_loop_dispatch`` locates structurally (RL002/RL003
    fixtures plug loop bodies into it)."""
    def block(code):
        lines = [ln for ln in code.strip("\n").splitlines()] or ["pass"]
        return "\n".join("        " + ln if ln else "" for ln in lines)

    init = block(init_extra) + "\n" if init_extra.strip() else ""
    return (
        "class Engine:\n"
        "    def __init__(self, config):\n"
        "        self.config = config\n"
        + init +
        "\n"
        "    def run(self, trace):\n"
        "        if self._resolve() == 'scalar':\n"
        "            self._loop_hot(trace)\n"
        "        else:\n"
        "            self._loop_vector(trace)\n"
        "\n"
        "    def _resolve(self):\n"
        "        return 'vector'\n"
        "\n"
        "    def _loop_hot(self, trace):\n" + block(hot) + "\n"
        "\n"
        "    def _loop_vector(self, trace):\n" + block(vec) + "\n"
    )


MISSING_METHOD_CLASS = engine_class().replace(
    "    def _loop_vector(self, trace):\n        pass\n", "")


#: code -> {"bad": [(label, source)], "good": [(label, source)]}
FIXTURES = {
    "RL001": {
        "bad": [
            ("module-rng",
             "import random\n\n\ndef jitter():\n"
             "    return random.random()\n"),
            ("wall-clock",
             "import time\n\nSTAMP = time.time()\n"),
            ("datetime-now",
             "from datetime import datetime\n\n\ndef stamp():\n"
             "    return datetime.now()\n"),
            ("os-urandom",
             "import os\n\nSEED = os.urandom(8)\n"),
            ("set-display-iteration",
             "def f():\n    for item in {1, 2, 3}:\n        yield item\n"),
            ("set-call-iteration",
             "def f(items):\n    out = 0\n    for item in set(items):\n"
             "        out += item\n    return out\n"),
            # Sole catches in docs/LINTING.md's mutation table.
            ("M02-wall-clock-analysis-budget",
             "def critical(trace, window):\n    import time\n"
             "    found = []\n"
             "    deadline = time.monotonic() + 30.0\n"
             "    for start in range(0, len(trace), window):\n"
             "        if time.monotonic() > deadline:\n"
             "            break\n"
             "        found.append(start)\n    return found\n"),
            ("M03-catalogue-from-string-set",
             "APPS = ('xz17', 'gcc17', 'mcf17')\n\n\n"
             "def build():\n    catalogue = {}\n"
             "    for name in set(APPS):\n"
             "        catalogue[name] = len(catalogue)\n"
             "    return catalogue\n"),
        ],
        "good": [
            ("seeded-rng",
             "import random\n\n\ndef draw(seed):\n"
             "    rng = random.Random(seed)\n    return rng.random()\n"),
            ("seeded-rng-alias-import",
             "from random import Random\n\n\ndef make(seed):\n"
             "    return Random(seed)\n"),
            ("sorted-set-iteration",
             "def f(items):\n    for item in sorted(set(items)):\n"
             "        yield item\n"),
        ],
    },
    "RL002": {
        "bad": [
            ("list-alloc-in-loop",
             engine_class(hot="total = 0\nfor op in trace:\n"
                              "    tmp = [op]\n    total += tmp[0]")),
            ("comprehension-in-loop",
             engine_class(hot="total = 0\nfor op in trace:\n"
                              "    vals = [x for x in range(op)]\n"
                              "    total += len(vals)")),
            ("self-lookup-in-loop",
             engine_class(hot="for op in trace:\n    width = self.width")),
            ("ungated-telemetry",
             engine_class(hot="hist = self.hist\nfor op in trace:\n"
                              "    hist.observe(op)")),
            ("ungated-telemetry-alias",
             engine_class(hot="observe = self.hist.observe\n"
                              "for op in trace:\n    observe(op)")),
            # Sole catches in docs/LINTING.md's mutation table.
            ("M21-attribution-setdefault",
             engine_class(hot="by_source = self.by_source\n"
                              "for op in trace:\n"
                              "    counts = by_source.setdefault(op, [0, 0])\n"
                              "    counts[0] += 1")),
            ("M22-config-lookup-in-loop",
             engine_class(hot="redirect = 0\nfor op in trace:\n"
                              "    redirect = op + self.config.vp_penalty")),
        ],
        "good": [
            ("gated-telemetry",
             engine_class(hot="hist = self.hist\ncollect = self.collect\n"
                              "for op in trace:\n    if collect:\n"
                              "        hist.observe(op)")),
            ("is-not-none-gate",
             engine_class(hot="hist = self.hist\nfor op in trace:\n"
                              "    if hist is not None:\n"
                              "        hist.observe(op)")),
            ("hoisted-locals-store-ok",
             engine_class(hot="width = self.width\ntable = self.table\n"
                              "total = 0\nfor op in trace:\n"
                              "    total += table[op] * width\n"
                              "    self.cursor = op")),
        ],
    },
    "RL003": {
        # The cross-file half (vector loop against the scalar loop) is
        # exercised through finish() below.
        "bad": [
            ("missing-dispatch-target", MISSING_METHOD_CLASS),
        ],
        "good": [
            ("complete-dispatch", engine_class()),
        ],
    },
    "RL004": {
        "bad": [
            ("bare-except",
             "def f():\n    try:\n        return 1\n"
             "    except:\n        return 0\n"),
            ("broad-except",
             "def f():\n    try:\n        return 1\n"
             "    except Exception:\n        return 0\n"),
            ("broad-except-in-tuple",
             "def f():\n    try:\n        return 1\n"
             "    except (ValueError, Exception):\n        return 0\n"),
            ("raise-runtimeerror",
             "def f():\n    raise RuntimeError('boom')\n"),
            ("raise-exception",
             "def f():\n    raise Exception('boom')\n"),
            ("ctor-valueerror",
             "class C:\n    def __init__(self, n):\n        if n < 0:\n"
             "            raise ValueError('n must be >= 0')\n"),
            # Sole catches in docs/LINTING.md's mutation table.
            ("M04-cache-read-catches-everything",
             "import json\n\n\ndef get(path):\n    try:\n"
             "        with open(path) as handle:\n"
             "            return json.load(handle)\n"
             "    except FileNotFoundError:\n        return None\n"
             "    except Exception:\n        return None\n"),
            ("M06-engine-ctor-valueerror",
             "class Engine:\n"
             "    def __init__(self, config, max_cycles=None):\n"
             "        if max_cycles is not None and max_cycles <= 0:\n"
             "            raise ValueError(\n"
             "                f'max_cycles must be positive, got {max_cycles}')\n"),
            ("M07-stop-swallows-compaction-failure",
             "def stop(wal, board):\n    try:\n"
             "        wal.compact(board.snapshot_records())\n"
             "    except:\n        pass\n"),
        ],
        "good": [
            ("specific-except",
             "def f():\n    try:\n        return 1\n"
             "    except ValueError:\n        return 0\n"),
            ("taxonomy-raise-in-ctor",
             "from repro.errors import ConfigError\n\n\nclass C:\n"
             "    def __init__(self, n):\n        if n < 0:\n"
             "            raise ConfigError('n must be >= 0')\n"),
            ("valueerror-outside-ctor",
             "def parse(text):\n    if not text:\n"
             "        raise ValueError('empty')\n    return text\n"),
            ("re-raise",
             "def f():\n    try:\n        return 1\n"
             "    except ValueError:\n        raise\n"),
        ],
    },
    "RL006": {
        "bad": [
            ("environ-get",
             "import os\n\nLIMIT = os.environ.get('REPRO_BOGUS_LIMIT')\n"),
            ("environ-subscript",
             "import os\n\nTOKEN = os.environ['REPRO_BOGUS_TOKEN']\n"),
            ("getenv",
             "import os\n\nFLAG = os.getenv('REPRO_BOGUS_FLAG')\n"),
            ("module-constant-name",
             "import os\n\nNAME = 'REPRO_BOGUS_CONST'\n"
             "VALUE = os.environ.get(NAME)\n"),
            # Sole catch in docs/LINTING.md's mutation table.
            ("M14-misspelt-faults-constant",
             "import os\n\nFAULTS_ENV = 'REPRO_FAULT'\n\n\n"
             "def active_plan():\n"
             "    return os.environ.get(FAULTS_ENV)\n"),
        ],
        "good": [
            ("declared-read",
             "import os\n\nLENGTH = os.environ.get('REPRO_LENGTH')\n"),
            ("non-repro-variable",
             "import os\n\nHOME = os.getenv('HOME')\n"),
            ("dynamic-name-skipped",
             "import os\n\n\ndef read(name):\n"
             "    return os.environ.get(name)\n"),
        ],
    },
    "RL008": {
        "bad": [
            ("missing-guard-map",
             "import threading\n\n\nclass Box:\n"
             "    def __init__(self):\n"
             "        self._lock = threading.Lock()\n"
             "        self.items = []\n"),
            ("unguarded-write",
             "import threading\n\n\nclass Counter:\n"
             "    _GUARDED = {'count': '_lock'}\n\n"
             "    def __init__(self):\n"
             "        self._lock = threading.Lock()\n"
             "        self.count = 0\n\n"
             "    def bump(self):\n"
             "        self.count += 1\n"),
            ("wait-outside-lock",
             "import threading\n\n\nclass Box:\n"
             "    _GUARDED = {'items': '_lock'}\n\n"
             "    def __init__(self):\n"
             "        self._lock = threading.Lock()\n"
             "        self._cond = threading.Condition(self._lock)\n"
             "        self.items = []\n\n"
             "    def wake(self):\n"
             "        self._cond.notify_all()\n"),
            ("helper-called-unlocked",
             "import threading\n\n\nclass Board:\n"
             "    _GUARDED = {'jobs': '_lock'}\n\n"
             "    def __init__(self):\n"
             "        self._lock = threading.Lock()\n"
             "        self.jobs = []\n\n"
             "    def _append(self, job):\n"
             "        \"\"\"Add one job (lock held).\"\"\"\n"
             "        self.jobs.append(job)\n\n"
             "    def add(self, job):\n"
             "        self._append(job)\n"),
            ("callback-escape",
             "import threading\n\n\nclass Publisher:\n"
             "    _GUARDED = {'value': '_lock'}\n\n"
             "    def __init__(self):\n"
             "        self._lock = threading.Lock()\n"
             "        self.value = 0\n\n"
             "    def make_reader(self):\n"
             "        with self._lock:\n"
             "            def read():\n"
             "                return self.value\n"
             "            return read\n"),
            ("unknown-guard-name",
             "import threading\n\n\nclass Odd:\n"
             "    _GUARDED = {'state': '_mutex'}\n\n"
             "    def __init__(self):\n"
             "        self._lock = threading.Lock()\n"
             "        self.state = 0\n"),
            ("unlocked-setattr",
             "import threading\n\n\nclass Stats:\n"
             "    _GUARDED = {'requests': '_lock'}\n\n"
             "    def __init__(self):\n"
             "        self._lock = threading.Lock()\n"
             "        self.requests = 0\n\n"
             "    def bump(self, name):\n"
             "        setattr(self, name, getattr(self, name) + 1)\n"),
            ("unlocked-literal-getattr",
             "import threading\n\n\nclass Stats:\n"
             "    _GUARDED = {'requests': '_lock'}\n\n"
             "    def __init__(self):\n"
             "        self._lock = threading.Lock()\n"
             "        self.requests = 0\n\n"
             "    def read(self):\n"
             "        return getattr(self, 'requests')\n"),
            ("foreign-lock",
             "import threading\n\n"
             "from repro.service.board import JobBoard\n\n\n"
             "class Daemon:\n"
             "    _GUARDED = {'requests': '_lock'}\n\n"
             "    def __init__(self):\n"
             "        self._lock = threading.Lock()\n"
             "        self.requests = 0\n"
             "        self.board = JobBoard()\n\n"
             "    def peek(self):\n"
             "        with self.board._lock:\n"
             "            return len(self.board.records)\n"),
            ("reversed-edge",
             "import threading\n\n"
             "from repro.service.board import JobBoard\n\n\n"
             "class WriteAheadLog:\n"
             "    _GUARDED = {'appends': '_lock'}\n\n"
             "    def __init__(self, board: JobBoard):\n"
             "        self._lock = threading.Lock()\n"
             "        self.appends = 0\n"
             "        self.board = board\n\n"
             "    def append(self):\n"
             "        with self._lock:\n"
             "            self.appends += 1\n"
             "            self.board.close()\n"),
        ],
        "good": [
            ("guarded-access",
             "import threading\n\n\nclass Counter:\n"
             "    _GUARDED = {'count': '_lock'}\n\n"
             "    def __init__(self):\n"
             "        self._lock = threading.Lock()\n"
             "        self.count = 0\n\n"
             "    def bump(self):\n"
             "        with self._lock:\n"
             "            self.count += 1\n\n"
             "    def snapshot(self):\n"
             "        with self._lock:\n"
             "            return self.count\n"),
            ("setattr-under-guard",
             "import threading\n\n\nclass Stats:\n"
             "    _GUARDED = {'requests': '_lock'}\n\n"
             "    def __init__(self):\n"
             "        self._lock = threading.Lock()\n"
             "        self.requests = 0\n\n"
             "    def bump(self, name):\n"
             "        with self._lock:\n"
             "            setattr(self, name, getattr(self, name) + 1)\n"),
            ("declared-edge",
             "import threading\n"
             "from typing import Optional\n\n"
             "from repro.service.wal import WriteAheadLog\n\n\n"
             "class JobBoard:\n"
             "    _GUARDED = {'records': '_lock'}\n\n"
             "    def __init__(self, wal: Optional[WriteAheadLog] = None):\n"
             "        self._lock = threading.Lock()\n"
             "        self.records = {}\n"
             "        self.wal = wal\n\n"
             "    def _log(self, record):\n"
             "        \"\"\"Append one record (lock held).\"\"\"\n"
             "        self.wal.append(record)\n\n"
             "    def submit(self, key, record):\n"
             "        with self._lock:\n"
             "            self._log(record)\n"
             "            self.records[key] = record\n"),
            ("condition-alias",
             "import threading\n\n\nclass Mailbox:\n"
             "    _GUARDED = {'items': '_lock'}\n\n"
             "    def __init__(self):\n"
             "        self._lock = threading.Lock()\n"
             "        self._cond = threading.Condition(self._lock)\n"
             "        self.items = []\n\n"
             "    def put(self, item):\n"
             "        with self._cond:\n"
             "            self.items.append(item)\n"
             "            self._cond.notify()\n\n"
             "    def take(self):\n"
             "        with self._cond:\n"
             "            while not self.items:\n"
             "                self._cond.wait()\n"
             "            return self.items.pop(0)\n"),
            ("documented-helper",
             "import threading\n\n\nclass Board:\n"
             "    _GUARDED = {'jobs': '_lock'}\n\n"
             "    def __init__(self):\n"
             "        self._lock = threading.Lock()\n"
             "        self.jobs = []\n\n"
             "    def _append(self, job):\n"
             "        \"\"\"Add one job (lock held).\"\"\"\n"
             "        self.jobs.append(job)\n\n"
             "    def add(self, job):\n"
             "        with self._lock:\n"
             "            self._append(job)\n"),
        ],
    },
    "RL009": {
        "bad": [
            ("daemon-no-rationale",
             "import threading\n\n\ndef start(fn):\n"
             "    thread = threading.Thread(target=fn, daemon=True)\n"
             "    thread.start()\n    return thread\n"),
            ("never-joined",
             "import threading\n\n\ndef start(fn):\n"
             "    worker = threading.Thread(target=fn)\n"
             "    worker.start()\n    return worker\n"),
            ("unstoppable-loop",
             "import threading\nimport time\n\n\ndef _spin():\n"
             "    while True:\n        time.sleep(0.1)\n\n\n"
             "def start():\n"
             "    # daemon-thread: fixture rationale\n"
             "    thread = threading.Thread(target=_spin, daemon=True)\n"
             "    thread.start()\n    return thread\n"),
            # Sole catches in docs/LINTING.md's mutation table.
            ("M17-handler-thread-never-joined",
             "import threading\n\n\nclass Daemon:\n"
             "    def serve_forever(self, listener):\n"
             "        while True:\n"
             "            conn, _ = listener.accept()\n"
             "            threading.Thread(target=self._serve_connection,\n"
             "                             args=(conn,)).start()\n\n"
             "    def _serve_connection(self, conn):\n"
             "        conn.close()\n"),
            ("M18-scheduler-neither-joined-nor-explained",
             "import threading\n\n\nclass Daemon:\n"
             "    def serve_forever(self):\n"
             "        self._scheduler = threading.Thread(\n"
             "            target=self._run_scheduler, daemon=True)\n"
             "        self._scheduler.start()\n\n"
             "    def _run_scheduler(self):\n        pass\n"),
        ],
        "good": [
            ("daemon-with-rationale",
             "import threading\n\n\ndef start(fn):\n"
             "    # daemon-thread: abandoned at exit by design\n"
             "    thread = threading.Thread(target=fn, daemon=True)\n"
             "    thread.start()\n    return thread\n"),
            ("joined-on-stop",
             "import threading\n\n\nclass Runner:\n"
             "    def __init__(self, fn):\n"
             "        self._thread = threading.Thread(target=fn)\n\n"
             "    def start(self):\n"
             "        self._thread.start()\n\n"
             "    def stop(self):\n"
             "        self._thread.join()\n"),
            ("loop-checks-event",
             "import threading\n\n\nclass Beat:\n"
             "    def __init__(self):\n"
             "        self._stop = threading.Event()\n"
             "        # daemon-thread: exits once _stop is set\n"
             "        self._thread = threading.Thread(\n"
             "            target=self._loop, daemon=True)\n\n"
             "    def _loop(self):\n"
             "        while True:\n"
             "            if self._stop.wait(0.1):\n"
             "                return\n\n"
             "    def stop(self):\n"
             "        self._stop.set()\n"
             "        self._thread.join()\n"),
        ],
    },
    "RL010": {
        "bad": [
            ("direct-write-open",
             "def checkpoint(path, payload):\n"
             "    with open(path, 'w', encoding='utf-8') as handle:\n"
             "        handle.write(payload)\n"),
            ("append-mode-kwarg",
             "def journal(path, line):\n"
             "    handle = open(path, mode='ab')\n"
             "    handle.write(line)\n    handle.close()\n"),
            # Sole catches in docs/LINTING.md's mutation table.
            ("M19-seal-appended-without-fsync",
             "def seal(wal, encode_record):\n"
             "    with open(wal.segment_paths()[-1], 'ab') as seg:\n"
             "        seg.write(encode_record({'t': 'seal'}))\n"),
            ("M20-counters-written-in-place",
             "import json\nimport os\n\n\n"
             "def persist(cache_root, wal):\n"
             "    with open(os.path.join(cache_root, 'counters.json'),\n"
             "              mode='w', encoding='utf-8') as fh:\n"
             "        json.dump(wal.counters(), fh)\n"),
        ],
        "good": [
            ("read-only-open",
             "def load(path):\n"
             "    with open(path, encoding='utf-8') as handle:\n"
             "        return handle.read()\n"),
            ("explicit-read-mode",
             "def load(path):\n"
             "    with open(path, 'rb') as handle:\n"
             "        return handle.read()\n"),
        ],
    },
    "RL007": {
        "bad": [
            ("list-of-as-source",
             "from repro.trace.source import as_source\n\n\n"
             "def flatten(trace):\n    source = as_source(trace)\n"
             "    return list(source)\n"),
            ("subscript-on-annotated-source",
             "from repro.trace.source import TraceSource\n\n\n"
             "def first(source: TraceSource):\n    return source[0]\n"),
            ("sorted-open-trace",
             "from repro.trace.io import open_trace\n\n\n"
             "def ordered(path):\n    src = open_trace(path)\n"
             "    return sorted(src)\n"),
            # Sole catch in docs/LINTING.md's mutation table.
            ("M15-timing-loop-counts-ops-by-listing",
             "from repro.trace.source import TraceSource\n\n\n"
             "class Engine:\n"
             "    def _time_trace(self, trace: TraceSource, warmup):\n"
             "        total_ops = len(list(trace))\n"
             "        for op in trace:\n            pass\n"
             "        return total_ops\n"),
        ],
        "good": [
            ("chunked-iteration",
             "from repro.trace.source import as_source\n\n\n"
             "def count(trace):\n    source = as_source(trace)\n"
             "    total = 0\n"
             "    for window in source.chunks():\n"
             "        total += len(window)\n    return total\n"),
            ("explicit-materialize-escape-hatch",
             "from repro.trace.source import TraceSource\n\n\n"
             "def analyse(source: TraceSource):\n"
             "    ops = source.materialize()\n    return ops[0]\n"),
            ("union-annotation-admits-lists",
             "from typing import Sequence, Union\n\n"
             "from repro.trace.source import TraceSource\n\n\n"
             "def accept(trace: Union[TraceSource, Sequence]):\n"
             "    return list(trace)\n"),
        ],
    },
}


#: Rules scoped outside the default pipeline path lint their fixtures
#: at a path inside their own enforcement scope.
FIXTURE_PATHS = {
    "RL008": "src/repro/service/snippet.py",
    "RL009": "src/repro/service/snippet.py",
    "RL010": "src/repro/service/snippet.py",
}
DEFAULT_FIXTURE_PATH = "src/repro/pipeline/snippet.py"


def _cases(kind):
    for code in sorted(FIXTURES):
        for label, src in FIXTURES[code][kind]:
            yield pytest.param(code, src, id=f"{code}-{label}")


@pytest.mark.parametrize("code,src", _cases("bad"))
def test_bad_fixture_is_caught(code, src):
    findings = lint_source(
        src, path=FIXTURE_PATHS.get(code, DEFAULT_FIXTURE_PATH),
        select=[code])
    assert findings, f"{code} fixture expected at least one finding"
    assert {f.code for f in findings} == {code}
    assert all(f.message for f in findings)


@pytest.mark.parametrize("code,src", _cases("good"))
def test_good_fixture_is_clean(code, src):
    findings = lint_source(
        src, path=FIXTURE_PATHS.get(code, DEFAULT_FIXTURE_PATH),
        select=[code])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_every_rule_has_fixture_pairs():
    # Meta-test: a rule cannot exist without >=1 positive and >=1
    # negative fixture, and fixtures cannot name unknown codes.
    assert set(FIXTURES) == set(ALL_CODES)
    for code in ALL_CODES:
        assert len(FIXTURES[code]["bad"]) >= 1, code
        assert len(FIXTURES[code]["good"]) >= 1, code


def test_rule_metadata_is_complete():
    rules = default_rules()
    assert [r.code for r in rules] == sorted(r.code for r in rules)
    for rule in rules:
        assert rule.code.startswith("RL") and len(rule.code) == 5
        assert rule.name and rule.description


# ----------------------------------------------------------------------
# Scoping and suppression machinery.
# ----------------------------------------------------------------------
def test_rule_scope_excludes_out_of_scope_paths():
    # RL001 polices the simulated machine, not the experiment drivers:
    # the same nondeterministic snippet is legal outside its scope.
    src = "import time\n\nSTAMP = time.time()\n"
    assert lint_source(src, select=["RL001"])
    assert lint_source(src, path="src/repro/experiments/sweep.py",
                       select=["RL001"]) == []


def test_suppression_same_line():
    src = ("import time\n\n"
           "STAMP = time.time()  # reprolint: disable=RL001\n")
    assert lint_source(src, select=["RL001"]) == []


def test_suppression_comment_line_above():
    src = ("import time\n\n"
           "# build stamp, not simulated time"
           "  # reprolint: disable=RL001\n"
           "STAMP = time.time()\n")
    assert lint_source(src, select=["RL001"]) == []


def test_suppression_file_wide():
    src = ("# reprolint: disable-file=RL001\n"
           "import time\n\n"
           "A = time.time()\n"
           "B = time.time()\n")
    assert lint_source(src, select=["RL001"]) == []


def test_suppression_is_per_code():
    src = ("import time\n\n"
           "STAMP = time.time()  # reprolint: disable=RL004\n")
    assert [f.code for f in lint_source(src, select=["RL001"])] == ["RL001"]


# ----------------------------------------------------------------------
# The structural dispatch locator against the real engine.
# ----------------------------------------------------------------------
def test_locator_finds_engine_dispatch():
    engine_py = REPO / "src" / "repro" / "pipeline" / "engine.py"
    located = find_loop_dispatch(ast.parse(engine_py.read_text()))
    assert located is not None
    assert located.hot_name == "_time_trace"
    assert located.vector_name == "_time_trace_vector"
    assert located.cls.name == "Engine"


# ----------------------------------------------------------------------
# RL003's cross-file vector-loop half (finish() pass, like RL006's).
# ----------------------------------------------------------------------
_LOCKSTEP_BODY = ("cfg = self.config\nwidth = cfg.fetch_width\n"
                  "pred = self.predictor\n"
                  "for window in trace.chunks():\n"
                  "    pred.predict(window)\n"
                  "    pred.train_execute(window)")

VECTOR_LOOP_SRC = (
    "from repro.pipeline.vp_interface import ValuePredictor\n"
    "\n"
    "\n"
    "def time_trace_vector(engine, trace):\n"
    "    pcls = type(engine.predictor)\n"
    "    if (pcls.predict is not ValuePredictor.predict\n"
    "            or pcls.train_execute is not "
    "ValuePredictor.train_execute):\n"
    "        engine._loop_hot(trace)\n"
    "        return\n"
    "    cfg = engine.config\n"
    "    width = cfg.fetch_width\n"
    "    for window in trace.soa_windows():\n"
    "        pass\n")


def _rl003_cross_file(vector_src, init_extra=""):
    from repro.lint.rules import DualLoopDriftRule

    engine_src = engine_class(hot=_LOCKSTEP_BODY, init_extra=init_extra)
    rule = DualLoopDriftRule()
    assert rule.check(ast.parse(engine_src), engine_src,
                      "src/repro/pipeline/engine.py") == []
    assert rule.check(ast.parse(vector_src), vector_src,
                      "src/repro/pipeline/engine_vector.py") == []
    return rule.finish()


def test_rl003_vector_lockstep_is_clean():
    assert _rl003_cross_file(VECTOR_LOOP_SRC) == []


def test_rl003_init_precompute_folds_in():
    # The engine precomputes ``ports`` in __init__: a vector loop that
    # reads it directly sees the same model.
    reads_ports = VECTOR_LOOP_SRC.replace(
        "width = cfg.fetch_width",
        "width = cfg.fetch_width\n    ports = cfg.ports")
    assert _rl003_cross_file(reads_ports,
                             init_extra="self._tab = config.ports") == []
    assert _rl003_cross_file(reads_ports)


def test_rl003_vector_config_drift():
    drifted = VECTOR_LOOP_SRC.replace(
        "width = cfg.fetch_width",
        "width = cfg.fetch_width\n    depth = cfg.rob_size")
    findings = _rl003_cross_file(drifted)
    assert findings and all(f.code == "RL003" for f in findings)
    assert any("config attribute drift" in f.message
               and "rob_size" in f.message for f in findings)


def test_rl003_vector_missing_delegation_probe():
    unprobed = VECTOR_LOOP_SRC.replace(
        "\n            or pcls.train_execute is not "
        "ValuePredictor.train_execute", "")
    findings = _rl003_cross_file(unprobed)
    assert any("delegation-probe drift" in f.message
               and "train_execute" in f.message for f in findings)


def test_rl003_vector_undeclared_stream_surface():
    off_surface = VECTOR_LOOP_SRC.replace("soa_windows", "windows")
    findings = _rl003_cross_file(off_surface)
    assert any("trace-stream drift" in f.message for f in findings)


def test_rl003_vector_partial_run_is_silent():
    # Only one side scanned: no cross-file ground truth, no findings.
    from repro.lint.rules import DualLoopDriftRule

    rule = DualLoopDriftRule()
    assert rule.check(ast.parse(VECTOR_LOOP_SRC), VECTOR_LOOP_SRC,
                      "src/repro/pipeline/engine_vector.py") == []
    assert rule.finish() == []


# ----------------------------------------------------------------------
# Cross-file reverse directions (finish() passes).
# ----------------------------------------------------------------------
def test_rl006_reverse_flags_dead_registry_entry():
    rule = EnvRegistryRule(declared={"REPRO_ALIVE", "REPRO_DEAD"})
    reg_src = "REGISTRY = {}\n"
    assert rule.check(ast.parse(reg_src), reg_src,
                      "src/repro/envreg.py") == []
    read_src = "import os\n\nV = os.environ.get('REPRO_ALIVE')\n"
    assert rule.check(ast.parse(read_src), read_src,
                      "src/repro/cli.py") == []
    stale = rule.finish()
    assert [f.code for f in stale] == ["RL006"]
    assert "REPRO_DEAD" in stale[0].message


# ----------------------------------------------------------------------
# Dogfood: the shipped tree is clean.
# ----------------------------------------------------------------------
def test_shipped_tree_is_lint_clean():
    findings = lint_paths([str(REPO / "src" / "repro"),
                           str(REPO / "tools"),
                           str(REPO / "benchmarks")])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_lint_default_paths_cover_benchmarks():
    from repro.cli import build_parser

    args = build_parser().parse_args(["lint"])
    assert args.paths == ["src/repro", "tools", "benchmarks"]


def test_benchmark_knobs_are_dead_entries_without_benchmarks():
    # The benchmark suite's knobs are read only in benchmarks/, so a
    # run that leaves that tree out sees their registry entries as
    # dead: RL006 needs it among the default paths.
    findings = lint_paths([str(REPO / "src" / "repro"),
                           str(REPO / "tools")], select=["RL006"])
    assert sorted(f.message.split()[2] for f in findings) == \
        ["REPRO_CACHE", "REPRO_JOBS", "REPRO_PER_CATEGORY"]
    assert all("nothing in the scanned tree reads it" in f.message
               for f in findings)


@pytest.mark.parametrize("name", ["REPRO_JOBS", "REPRO_CACHE",
                                  "REPRO_PER_CATEGORY"])
def test_benchmark_suite_knob_is_registered(name):
    from repro import envreg

    assert envreg.REGISTRY[name].consumer == "benchmarks.conftest"
    conftest = (REPO / "benchmarks" / "conftest.py").read_text()
    assert f'os.environ.get("{name}"' in conftest
    assert envreg.undeclared({name: "1"}) == []


# ----------------------------------------------------------------------
# CLI contract: exit codes, rendering, and the repro subcommand.
# ----------------------------------------------------------------------
def test_cli_exit_codes_and_render(tmp_path, capsys):
    from repro.cli import main

    clean = tmp_path / "clean.py"
    clean.write_text("GOOD = 1\n")
    assert main(["lint", str(clean)]) == 0

    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f():\n    raise RuntimeError('boom')\n")
    assert main(["lint", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "RL004" in out and "[fix:" in out

    assert main(["lint", str(tmp_path / "missing.py")]) == 2
    assert main(["lint", "--select", "RL999", str(clean)]) == 2
    with pytest.raises(SystemExit) as exited:  # one render: no --format
        main(["lint", "--format", "json", str(clean)])
    assert exited.value.code == 2


def test_rl010_blessed_module_is_exempt():
    # The WAL module *is* the blessed durable writer; the same direct
    # write one directory over is a finding.
    src = ("def save(path, data):\n"
           "    with open(path, 'w') as handle:\n"
           "        handle.write(data)\n")
    assert lint_source(src, path="src/repro/service/wal.py",
                       select=["RL010"]) == []
    flagged = lint_source(src, path="src/repro/service/extra.py",
                          select=["RL010"])
    assert [f.code for f in flagged] == ["RL010"]


def test_cli_list_rules(capsys):
    from repro.cli import main

    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ALL_CODES:
        assert code in out


def test_repro_lint_subcommand_wired():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--list-rules"],
        cwd=REPO, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"})
    assert proc.returncode == 0, proc.stderr
    assert "RL001" in proc.stdout and "RL006" in proc.stdout


def test_repro_cli_loads_no_lint_module():
    # Only the `lint` command body imports repro.lint, so building the
    # parser (every command does) loads none of it.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; repro.cli.build_parser(); "
         "print(sorted(m for m in sys.modules "
         "if m.startswith('repro.lint')))"],
        cwd=REPO, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# Typing ratchet + env registry companions of the lint gate.
# ----------------------------------------------------------------------
def test_typing_ratchet_entries_are_real_modules():
    from repro import typing_ratchet

    assert typing_ratchet.missing() == []
    strict, total = typing_ratchet.coverage()
    assert 0 < strict <= total
    assert 0.0 < typing_ratchet.coverage_percent() <= 100.0


def test_env_registry_shape():
    from repro import envreg

    names = envreg.declared_names()
    assert names and all(n.startswith("REPRO_") for n in names)
    rendered = envreg.format_registry({})
    for name in names:
        assert name in rendered
    assert envreg.undeclared({"REPRO_NOT_A_THING": "1",
                              "HOME": "/root"}) == ["REPRO_NOT_A_THING"]
    assert envreg.undeclared({"REPRO_LENGTH": "5"}) == []


def test_mypy_strict_ratchet_passes():
    pytest.importorskip("mypy")
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_types.py")],
        cwd=REPO, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
