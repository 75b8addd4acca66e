"""The mutation table of ``tests/mutants.py`` stays in step with the code:
each row's old text occurs once in its file, and its test files exist;
and the runner's workers never share a copy.  The mutants themselves run
outside tier-1 (``python tests/mutants.py``)."""

import sys
import threading
import time

from mutants import MUTANTS, ROOT, Mutant, occurrence_faults, on_copies


def test_every_old_text_occurs_once():
    assert [fault for _, fault in occurrence_faults()] == []


def test_every_row_names_existing_test_files():
    assert [test for row in MUTANTS for test in row.tests if not (ROOT / test).is_file()] == []


def test_missing_file_is_one_fault_line(tmp_path):
    row = Mutant("src/bellchsh/absent.py", "x", "y", ("tests/test_chsh.py",), "gone")
    assert list(occurrence_faults((row,), tmp_path)) == [
        (row, "src/bellchsh/absent.py does not exist")]


def test_jobs_hold_their_copy_alone_and_come_back_in_order():
    # more worker threads than cores, switching often: a copy handed to
    # two jobs at once shows up in ``shared``
    held, shared, lock = set(), [], threading.Lock()

    def run(copy, job):
        with lock:
            shared.extend([copy] if copy in held else [])
            held.add(copy)
        time.sleep(0.001 * (job % 3))
        with lock:
            held.discard(copy)
        return job * job

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = list(on_copies(["a", "b", "c", "d", "e", "f"], run, range(120)))
    finally:
        sys.setswitchinterval(interval)
    assert results == [job * job for job in range(120)] and shared == []
