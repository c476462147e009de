"""The committed fig8 reference carries the golden values of
tests/experiments/test_golden_fig8.py."""

from pathlib import Path

REFERENCE = Path(__file__).resolve().parents[1] / "reference" / "fig8_fast.txt"

GOLDEN_MEASURED = {
    "HPU1": [1.268, 2.264, 2.883, 3.149, 3.548, 4.574, 4.564, 4.572, 4.392],
    "HPU2": [1.268, 2.264, 2.883, 3.149, 3.723, 4.436, 4.462, 4.292, 4.316],
}
GOLDEN_PREDICTED = {
    "HPU1": [3.258, 3.705, 4.159, 4.603, 5.033, 5.45, 5.857, 6.249, 6.631],
    "HPU2": [3.449, 3.94, 4.418, 4.87, 5.294, 5.71, 6.094, 6.468, 6.824],
}
GOLDEN_NOTES = [
    "HPU1: max measured speedup 4.57x at n=2^20",
    "HPU2: max measured speedup 4.46x at n=2^22",
]


def test_reference_table_matches_the_golden_values():
    lines = REFERENCE.read_text().splitlines()
    rows = [line.split() for line in lines if line.strip().startswith("HPU")]
    for platform in ("HPU1", "HPU2"):
        mine = [row for row in rows if row[0] == platform]
        assert [row[1] for row in mine] == [f"2^{e}" for e in range(10, 27, 2)]
        assert [float(row[2]) for row in mine] == GOLDEN_MEASURED[platform]
        assert [float(row[3]) for row in mine] == GOLDEN_PREDICTED[platform]
    assert [line[len("note: "):] for line in lines if line.startswith("note: ")] == GOLDEN_NOTES
