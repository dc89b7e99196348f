"""scripts/square_draw.py counts budget stops, not seconds, so its counts
repeat on any machine."""

import importlib.util
import re
from pathlib import Path

import diffalg.reduction

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "square_draw.py"
_spec = importlib.util.spec_from_file_location("square_draw", SCRIPT)
square_draw = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(square_draw)


def test_counts_of_a_small_budget_are_pinned(capsys):
    square_draw.main(["--cases", "20", "--max-order", "2", "--seed", "1", "--work", "2000"])
    *stops, summary = capsys.readouterr().out.splitlines()
    assert [int(re.match(r"draw (\d+): out of work: ", line).group(1)) for line in stops] == [
        1, 2, 3, 8, 9, 10, 14, 15, 17, 19
    ]
    assert re.sub(r" \(\d+\.\d s\)$", "", summary) == (
        "seed 1, order <= 2: 10 of 20 out of the budget MAX_WORK = 2000; HOLDS 10"
    )


def test_work_sets_the_budget_for_the_run_only(capsys):
    # 200,000 units unless --work says otherwise, named in the summary line;
    # the library's budget is back as it was after the run
    before = diffalg.reduction.MAX_WORK
    square_draw.main(["--cases", "0"])
    square_draw.main(["--cases", "3", "--work", "20000"])
    assert diffalg.reduction.MAX_WORK == before
    default, stop, small = [re.sub(r" \(\d+\.\d s\)$", "", line) for line in capsys.readouterr().out.splitlines()]
    assert default == "seed 1, order <= 2: 0 of 0 out of the budget MAX_WORK = 200000; "
    assert stop.startswith("draw 2: out of work: ")
    assert small == "seed 1, order <= 2: 1 of 3 out of the budget MAX_WORK = 20000; HOLDS 2"
