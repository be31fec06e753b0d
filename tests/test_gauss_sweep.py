"""tests/gauss_sweep.py at a tiny size: its inputs, and one input of each
part through this tree against itself."""

import io
from collections import Counter
from pathlib import Path

import gauss_sweep

ROOT = Path(__file__).resolve().parents[1]
PARTS = ("scan", "random", "circle", "small", "tests")


def _first_of_each_part():
    configs = gauss_sweep.configurations()
    return [next(c for c in configs if c[0] == part) for part in PARTS]


def test_sweep_inputs_are_fixed():
    configs = gauss_sweep.configurations()
    assert len(configs) == 5483
    assert Counter(c[0] for c in configs) == {"scan": 450, "random": 2400, "circle": 2000,
                                               "small": 400, "tests": 233}
    assert configs == gauss_sweep.configurations()


def test_sweep_finds_no_difference_between_a_tree_and_itself():
    out = io.StringIO()
    assert gauss_sweep.compare(ROOT, ROOT, _first_of_each_part(), out) == []
    assert "5 inputs; 0 differ, 0 of them in kind" in out.getvalue()


def test_sweep_prints_a_difference_with_the_exact_outcome(monkeypatch):
    # a planted outcome on the change's side shows with both outcomes and
    # the exact-moment reference's, which is the parent's here
    real = gauss_sweep.outcomes

    def planted(tree, configs, mode="solve"):
        res = real(ROOT, configs, mode)
        if tree == "planted" and mode == "solve":
            res[0] = ["rule", ["0x1.0000000000000p+0"], ["0x1.0000000000000p+0"]]
        return res

    monkeypatch.setattr(gauss_sweep, "outcomes", planted)
    configs = _first_of_each_part()
    out = io.StringIO()
    assert gauss_sweep.compare(ROOT, "planted", configs, out) == [0]
    text = out.getvalue()
    assert "5 inputs; 1 differ, 0 of them in kind" in text
    parent, change, exact = (line.split(": ", 1)[1] for line in text.splitlines()
                             if line.startswith(("  parent:", "  change:", "  exact:")))
    assert change == '["rule", ["0x1.0000000000000p+0"], ["0x1.0000000000000p+0"]]'
    assert exact == parent != change


def test_sweep_exits_1_on_a_difference(monkeypatch):
    # main's exit status, on canned outcomes: 1 with the planted difference
    # on the change's side, 0 with none
    rule = ["rule", ["0x1.0000000000000p+0"], ["0x1.0000000000000p+0"]]

    def canned(tree, configs, mode="solve"):
        res = [rule] * len(configs)
        if tree == "planted" and mode == "solve":
            res[0] = ["refused", "OrderTooHighError", "planted", 0]
        return res

    configs = _first_of_each_part()
    monkeypatch.setattr(gauss_sweep, "outcomes", canned)
    monkeypatch.setattr(gauss_sweep, "configurations", lambda: configs)
    assert gauss_sweep.main(["--parent", str(ROOT), "--change", "planted"]) == 1
    assert gauss_sweep.main(["--parent", str(ROOT), "--change", str(ROOT)]) == 0
