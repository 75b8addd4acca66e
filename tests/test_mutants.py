"""The mutation table of ``tests/mutants.py`` stays in step with the code:
each row's old text occurs once in its file, and its test files exist.
The mutants themselves run outside tier-1 (``python tests/mutants.py``)."""

from mutants import MUTANTS, ROOT, Mutant, occurrence_faults


def test_every_old_text_occurs_once():
    assert [fault for _, fault in occurrence_faults()] == []


def test_every_row_names_existing_test_files():
    assert [test for row in MUTANTS for test in row.tests if not (ROOT / test).is_file()] == []


def test_missing_file_is_one_fault_line(tmp_path):
    row = Mutant("src/bellchsh/absent.py", "x", "y", ("tests/test_chsh.py",), "gone")
    assert list(occurrence_faults((row,), tmp_path)) == [
        (row, "src/bellchsh/absent.py does not exist")]
