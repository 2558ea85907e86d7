import subprocess, sys, json
from pathlib import Path

ROOT = str(Path(__file__).resolve().parent.parent)


def test_cli_smoke(tmp_path):
    from geopolars_ray.sources.pages import generate_pages_parquet
    pages = str(tmp_path / "p"); out = str(tmp_path / "o")
    generate_pages_parquet(pages, 2000, rows_per_file=1000)
    r = subprocess.run([sys.executable, "-m", "geopolars_ray.run", "--pages", pages,
                        "--out", out, "--num-cpus", "4"],
                       capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    rec = json.loads(r.stdout.strip().splitlines()[-1])
    assert rec["completed_shards"] == 2 and rec["pending"] == 0


def test_cli_streaming(tmp_path):
    import pyarrow.parquet as pq
    from geopolars_ray.sources.pages import generate_pages_parquet
    pages = str(tmp_path / "p"); out = str(tmp_path / "o")
    generate_pages_parquet(pages, 2000, rows_per_file=1000)
    r = subprocess.run([sys.executable, "-m", "geopolars_ray.run", "--pages", pages,
                        "--out", out, "--num-cpus", "2", "--streaming"],
                       capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    assert json.loads(r.stdout.strip().splitlines()[-1])["mode"] == "streaming"
    t = pq.read_table(out)
    assert t.column_names == ["tile", "admin_id", "n_pages", "sum_lat", "sum_lon"]
    assert t.num_rows > 0
