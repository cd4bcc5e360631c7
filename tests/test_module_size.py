from pathlib import Path

# With PYTHONDONTWRITEBYTECODE=1 every import compiles each module afresh,
# and the benchmark's peak_rss_mb tracks the compile cost of the largest one.
MODULE_CAP = 12_134     # bytes
SOURCE = Path(__file__).resolve().parents[1] / "src" / "trustqueue"


def test_every_module_is_within_the_size_cap():
    sizes = {path.name: path.stat().st_size for path in SOURCE.glob("*.py")}
    assert "sim.py" in sizes
    assert {name: size for name, size in sizes.items() if size > MODULE_CAP} == {}
