"""Make the repository root importable so tests can share IR builders.

Also points the persistent run registry and the cache root (sweep
results, generated kernels and their marshalled code) at throwaway
directories: tests exercising ``--stats-json`` / ``repro history`` must
never append to the checkout's real ``results/history/runs.jsonl``, and
no test reads or writes the user's ``~/.cache/repro``.
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

os.environ.setdefault("REPRO_HISTORY_DIR",
                      tempfile.mkdtemp(prefix="repro-test-history-"))
os.environ.setdefault("REPRO_CACHE_DIR",
                      tempfile.mkdtemp(prefix="repro-test-cache-"))
