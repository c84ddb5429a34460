"""Seeded differential fuzz tests of the file readers, through the CLI.

Each fuzzer writes a valid file (a barcode, a filtration, a cloud or a
pipeline config), mutates it (swapped, repeated or dropped lines; tokens such
as ``nan``, ``1e400``, ``0x1p-3``, ``1_0`` and non-ASCII digits; ``\\r``,
``\\v``, tabs and blank lines), and checks one command on each against an
oracle that parses the bytes with ``bytes.split`` by the README's rules.
Where the oracle refuses a file the command must exit 2 and write nothing;
where it accepts one the command's result must equal the oracle's.
"""

import dataclasses
import math
import re

import numpy as np

from grasstri import analysis, cli, complexes, grassmann

INF = math.inf
TOKENS = [b"nan", b"inf", b"-inf", b"1e400", b"1e-400", b"-0", b"0x1p-3", b"1_0", b"0.2_5",
          "١".encode(), "0.٣".encode(), b"+1", b"-1", b"01", b"0", b"1", b"2", b"0.5"]
SPACES = [b"\t", b"\r", b"\v", b"\f", b" ", b"\r\n", b"\n"]


def mutated(rng, text: bytes, sep: bytes, first: int) -> bytes:
    """``text`` after one to three edits. Tokens are split by ``sep``, and lines
    before ``first`` keep theirs."""
    lines = text.split(b"\n")
    for _ in range(rng.integers(1, 4)):
        kind, (i, j) = rng.integers(6), rng.integers(first, max(len(lines), first + 1), 2)
        if kind == 3 and i < len(lines):  # one token replaced
            tokens = lines[i].split(sep)
            tokens[rng.integers(len(tokens))] = TOKENS[rng.integers(len(TOKENS))]
            lines[i] = sep.join(tokens)
        elif kind == 4:  # a whitespace byte inserted anywhere, the header too
            i = rng.integers(len(lines))
            at = rng.integers(len(lines[i]) + 1)
            lines[i] = lines[i][:at] + SPACES[rng.integers(len(SPACES))] + lines[i][at:]
        elif kind == 5:
            lines.insert(i, b"")
        elif i < len(lines) and j < len(lines):
            if kind == 0:
                lines[i], lines[j] = lines[j], lines[i]
            elif kind == 1:
                lines.insert(i, lines[j])
            else:
                del lines[i]
    return b"\n".join(lines)


def fresh(path):
    """``path``, unlinked. On ext4 a write over an existing file is flushed when
    it is closed (30-80 ms a case), and the write of a new one is not. A new
    name each case would leave pytest thousands of files to delete later."""
    path.unlink(missing_ok=True)
    return path


def run(capsys, argv, out):
    """Exit code and stdout of ``argv``; ``out`` is gone before it runs."""
    fresh(out)
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().out


def assert_both_outcomes(outcomes, cases):
    """The fuzz is no test unless it accepts and refuses many files."""
    assert min(outcomes.count(True), outcomes.count(False)) >= cases // 20, outcomes.count(True)


# ---------------------------------------------------------------------------
# barcode CSV through window


def barcode_oracle(data: bytes):
    """(degree, birth, death) rows, or None for a refused file. Lines end at
    \\n, \\r\\n or \\r; a line is ASCII without '_'; a degree is optionally signed
    ASCII digits, at least 0; a birth is finite and at most its death."""
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    if lines[0].strip() != b"degree,birth,death":
        return None
    bars = []
    for line in lines[1:]:
        if not line.isascii() or b"_" in line:
            return None
        if not line.strip():
            continue
        fields = line.strip().split(b",")
        if len(fields) != 3 or not re.fullmatch(rb"[+-]?[0-9]+", fields[0].strip()):
            return None
        try:
            degree, birth, death = int(fields[0]), float(fields[1]), float(fields[2])
        except ValueError:
            return None
        if degree < 0 or not math.isfinite(birth) or not birth <= death:
            return None
        bars.append((degree, birth, death))
    return bars


def windows_oracle(bars, target):
    """Maximal [a, b) on which the Betti numbers of degrees 0..len(target)-1 are
    ``target``, from r = min(0, first critical value) on, by evaluation at
    every critical value and 0."""
    top = len(target) - 1
    points = sorted({0.0} | {v for d, b, e in bars if d <= top for v in (b, e) if v != INF})
    windows = []
    for i, r in enumerate(points):
        betti = tuple(sum(d == k and b <= r < e for d, b, e in bars) for k in range(top + 1))
        if betti != target:
            continue
        end = points[i + 1] if i + 1 < len(points) else INF
        if windows and windows[-1][1] == r:
            windows[-1] = (windows[-1][0], end)
        else:
            windows.append((r, end))
    return windows


def valid_barcode(rng) -> bytes:
    bars = [(0, 0.0, INF), (1, round(rng.uniform(0, 1), 2), round(rng.uniform(1, 2), 2))]
    for _ in range(rng.integers(0, 5)):
        birth = round(rng.uniform(0, 2), 1)
        bars.append((int(rng.integers(3)), birth, INF if rng.random() < 0.3 else birth + 0.5))
    rows = "".join(f"{d},{b!r},{e!r}\n" for d, b, e in bars)
    return f"degree,birth,death\n{rows}".encode()


def test_window_agrees_with_barcode_oracle(shared_dir, capsys):
    rng, outcomes, cases = np.random.default_rng(20), [], 400
    path, out = shared_dir / "barcode.csv", shared_dir / "report.txt"
    for _ in range(cases):
        data = mutated(rng, valid_barcode(rng), b",", 1)
        fresh(path).write_bytes(data)
        code, _ = run(capsys, ["window", "--barcode", path, "--target", "1,1", "--out", out],
                      out)
        bars = barcode_oracle(data)
        outcomes.append(bars is not None)
        if bars is None:
            assert (code, out.exists()) == (2, False), data
            continue
        windows = windows_oracle(bars, (1, 1))
        assert code == (0 if windows else 3), data
        report = out.read_text().splitlines()
        got = [tuple(map(float, line[9:-1].split(", "))) for line in report[4:]]
        assert got == windows, data
    assert_both_outcomes(outcomes, cases)


# ---------------------------------------------------------------------------
# filtration through persist


def filtration_oracle(data: bytes):
    """Rows (value, dimension, vertices), or None for a refused file, by the
    README: a header of two integers ``dim_max vertex_count``, neither
    negative; each nonblank line an ASCII value float() reads, finite, then
    ASCII decimal labels below vertex_count, strictly increasing; lines
    strictly increasing by (value, dimension, vertices); dim_max the top
    dimension, and at least 1 when there are lines (persist's degree is one
    below); every facet listed earlier, and no simplex below the top listed
    twice."""
    lines = data.split(b"\n")
    header = lines[0].split()
    if len(header) != 2 or not all(re.fullmatch(rb"[+-]?[0-9]+", t) for t in header):
        return None
    dim_max, count = map(int, header)
    if min(dim_max, count) < 0:
        return None
    rows = []
    for tokens in map(bytes.split, lines[1:]):
        if not tokens:
            continue
        if not tokens[0].isascii() or len(tokens) < 2:
            return None
        try:
            value = float(tokens[0])
        except ValueError:
            return None
        if not all(re.fullmatch(rb"[0-9]+", t) for t in tokens[1:]):
            return None
        vertices = tuple(map(int, tokens[1:]))
        if not math.isfinite(value) or max(vertices) >= min(count, 2**31) or any(
                a >= b for a, b in zip(vertices, vertices[1:])):
            return None
        rows.append((value, len(vertices) - 1, vertices))
    top = max((d for _, d, _ in rows), default=0)
    if any(a >= b for a, b in zip(rows, rows[1:])) or top != dim_max or (rows and top < 1):
        return None
    seen = set()
    for _, d, s in rows:
        facets = [s[:p] + s[p + 1:] for p in range(len(s))] if d else []
        if (d < top and s in seen) or not seen.issuperset(facets):
            return None
        seen.add(s)
    return rows


def naive_bars(rows):
    """Bars of positive length in degrees below the top, by left-to-right Z/2
    reduction of boundary columns built from the vertex tuples."""
    first = {}
    for i, (_, _, s) in enumerate(rows):
        first.setdefault(s, i)
    reduced, pivot_of, births, deaths = [], {}, set(), set()
    for j, (_, d, s) in enumerate(rows):
        col = {first[s[:p] + s[p + 1:]] for p in range(len(s))} if d else set()
        while col and max(col) in pivot_of:
            col ^= reduced[pivot_of[max(col)]]
        reduced.append(col)
        if col:
            pivot_of[max(col)] = j
            births.add(max(col))
            deaths.add(j)
    top = max(d for _, d, _ in rows)
    bars = [(rows[b][1], rows[b][0], rows[j][0]) for b, j in pivot_of.items()
            if rows[b][0] != rows[j][0]]
    bars += [(rows[i][1], rows[i][0], INF) for i in range(len(rows))
             if i not in births and i not in deaths]
    return sorted(bar for bar in bars if bar[0] < top)


def valid_filtration(rng, path) -> bytes:
    cloud = rng.integers(0, 3, (int(rng.integers(4, 7)), 2)).astype(float)
    complexes.write_filtration(fresh(path), complexes.vietoris_rips(cloud, INF, 2))
    return path.read_bytes()


def test_persist_agrees_with_filtration_oracle(shared_dir, capsys):
    rng, outcomes, cases = np.random.default_rng(15), [], 300
    path, out = shared_dir / "filtration.txt", shared_dir / "barcode.csv"
    for _ in range(cases):
        data = valid_filtration(rng, path)
        lines = data.split(b"\n")
        head = rng.integers(12)
        if head < 2:  # a header of the wrong dim_max or vertex_count
            dim_max, count = map(int, lines[0].split())
            lines[0] = b"%d %d" % (dim_max + (1 - 2 * rng.integers(2)) * (head == 0),
                                   count + (1 - 2 * rng.integers(2)) * (head == 1))
        elif head == 2:
            del lines[0]
        data = mutated(rng, b"\n".join(lines), b" ", 1)
        fresh(path).write_bytes(data)
        code, _ = run(capsys, ["persist", "--filtration", path, "--out-csv", out], out)
        rows = filtration_oracle(data)
        outcomes.append(rows is not None)
        if rows is None:
            assert (code, out.exists()) == (2, False), data
            continue
        assert code == 0, data
        got = [(int(d), float(b), float(e)) for d, b, e in
               (line.split(",") for line in out.read_text().splitlines()[1:])]
        assert sorted(got) == (naive_bars(rows) if rows else []), data
    assert_both_outcomes(outcomes, cases)


# ---------------------------------------------------------------------------
# cloud through rips


def cloud_oracle(data: bytes):
    """The cloud, or None for a refused file: nonblank lines of ASCII tokens
    float() reads, all lines as long as the first, every value finite."""
    rows = [tokens for tokens in map(bytes.split, data.split(b"\n")) if tokens]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        return None
    if not all(t.isascii() for r in rows for t in r):
        return None
    try:
        cloud = np.array([[float(t) for t in r] for r in rows])
    except ValueError:
        return None
    return cloud if np.isfinite(cloud).all() else None


def test_rips_agrees_with_cloud_oracle(shared_dir, capsys):
    rng, outcomes, cases = np.random.default_rng(3), [], 200
    path, out = shared_dir / "cloud.txt", shared_dir / "filtration.txt"
    for _ in range(cases):
        grassmann.write_cloud(fresh(path), rng.integers(-4, 5, (int(rng.integers(3, 7)), 2)) / 4)
        data = mutated(rng, path.read_bytes(), b" ", 0)
        fresh(path).write_bytes(data)
        code, _ = run(capsys, ["rips", "--cloud", path, "--max-dim", "2", "--out", out], out)
        cloud = cloud_oracle(data)
        outcomes.append(cloud is not None)
        if cloud is None:
            assert (code, out.exists()) == (2, False), data
            continue
        assert code == 0, data
        assert complexes.read_filtration(out) == complexes.vietoris_rips(cloud, INF, 2), data
    assert_both_outcomes(outcomes, cases)


# ---------------------------------------------------------------------------
# pipeline --config values, up to the experiment they configure


INT_KEYS = {"sample_size", "max_dim", "seed", "landmark_count", "top_dim", "max_simplices"}


def config_oracle(data: bytes):
    """The ExperimentConfig, or None for a refused file. Lines end at \\n,
    \\r\\n or \\r; ``#`` starts a comment; each other nonblank line is
    ``key = value``, a key at most once. An integer is optionally signed ASCII
    digits; a float, or a list entry split at commas and whitespace, ASCII
    without '_' that float() reads. The experiment's own checks apply last."""
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    names = {f.name for f in dataclasses.fields(analysis.ExperimentConfig)}
    raw = {}
    for line in lines:
        key, sep, value = (part.strip() for part in line.split(b"#", 1)[0].partition(b"="))
        if (key and not sep) or (sep and (key.decode() in raw or key.decode() not in names)):
            return None
        if sep:
            raw[key.decode()] = value
    parsed = {}
    for key, value in raw.items():
        if key in INT_KEYS:
            if not re.fullmatch(rb"[+-]?[0-9]+", value):
                return None
            parsed[key] = int(value)
        elif key in ("r_max", "proportions"):
            if not value.isascii() or b"_" in value:
                return None
            try:
                parsed[key] = float(value) if key == "r_max" else tuple(
                    float(t) for t in value.replace(b",", b" ").split())
            except ValueError:
                return None
        else:
            parsed[key] = value.decode()
    try:
        return analysis.ExperimentConfig(**parsed)
    except (TypeError, ValueError):  # a required key missing, or the experiment's checks
        return None


def test_pipeline_config_agrees_with_config_oracle(shared_dir, monkeypatch, capsys):
    """The pipeline stops where it would start work, so each case only parses."""
    configs = []

    def stop(config):
        configs.append(config)
        raise complexes.ResourceLimit("stopped before the experiment")

    monkeypatch.setattr(analysis, "run_pipeline", stop)
    monkeypatch.chdir(shared_dir)
    rng, outcomes, cases = np.random.default_rng(11), [], 300
    path = shared_dir / "exp.cfg"
    valid = (b"space = grassmann-4-2\nsample_size = 12  # points\nr_max = 0.5\nmax_dim = 1\n"
             b"seed = 3\ntop_dim = 1\nmax_simplices = 5000\nproportions = 1, 2,1 1 1\n"
             b"output_dir = out\n")
    for _ in range(cases):
        data = mutated(rng, valid, b"=", 0)
        fresh(path).write_bytes(data)
        code = cli.main(["pipeline", "--config", str(path)])
        capsys.readouterr()
        expected = config_oracle(data)
        outcomes.append(expected is not None)
        assert code == (2 if expected is None else 4), data
        if expected is not None:
            assert repr(configs.pop()) == repr(expected), data  # nan equals itself in a repr
    assert_both_outcomes(outcomes, cases)
