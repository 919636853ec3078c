"""Workload parsing, generators, replay, bench, and the CLI surface."""

import csv
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dynorient
from dynorient import OrientationConfig, WorkloadError, workload
from dynorient.cli import main as cli_main
from dynorient.harness import bench, replay
from dynorient.oracles import (
    FLOW_LIMIT_DEFAULT,
    exact_arboricity,
    exact_density,
    exact_density_enum,
    exact_min_max_outdegree,
    subgraph_density,
)
from dynorient.workload import (
    GENERATOR_KINDS,
    QUERY_KINDS,
    WorkloadOp,
    generate,
    load_workload,
    parse_workload,
)

from conftest import clique_edges


def _run_cli(*args):
    """Run the CLI in a fresh interpreter that imports the package under
    test, whether or not PYTHONPATH names it."""
    env = dict(os.environ)
    src = str(Path(dynorient.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "dynorient.cli", *args],
                          capture_output=True, text=True, env=env)


def _final_edges(ops):
    """The edge set a workload leaves, as sorted (a, b) with a < b."""
    edges = set()
    for op in ops:
        e = (min(op.u, op.v), max(op.u, op.v))
        if op.kind == "+":
            edges.add(e)
        elif op.kind == "-":
            edges.discard(e)
    return sorted(edges)


def _k4_workload():
    lines = ["n 8"] + [f"+ {u} {v}" for u, v in clique_edges(4)]
    return lines


class TestParsing:
    def test_missing_header(self):
        with pytest.raises(WorkloadError) as err:
            parse_workload(["+ 0 1"])
        assert "line 1" in str(err.value)

    def test_bad_vertex_and_self_loop(self):
        with pytest.raises(WorkloadError) as err:
            parse_workload(["n 4", "+ 0 9"])
        assert "line 2" in str(err.value)
        with pytest.raises(WorkloadError):
            parse_workload(["n 4", "+ 2 2"])

    def test_unknown_ops(self):
        with pytest.raises(WorkloadError):
            parse_workload(["n 4", "* 0 1"])
        with pytest.raises(WorkloadError):
            parse_workload(["n 4", "? nonsense"])
        with pytest.raises(WorkloadError):
            parse_workload(["n 4", "! nonsense"])

    def test_comments_and_queries(self):
        n, ops = parse_workload([
            "n 6", "# comment", "", "+ 0 1", "? density", "? color 3",
            "! audit", "- 0 1",
        ])
        assert n == 6
        assert [op.kind for op in ops] == ["+", "density", "color", "audit",
                                           "-"]
        assert ops[2].u == 3


@pytest.mark.parametrize("lines, line_no, message", [
    (["n x"], 1, "bad capacity 'x'"),
    (["n 1"], 1, "capacity must be at least 2"),
    (["n 4", "+ 0"], 2, "expected '+ u v'"),
    (["n 4", "? color"], 2, "expected '? color <vertex>'"),
    (["n 4", "? density x"], 2, "expected '? density'"),
    (["# no header", ""], 1, "missing header 'n <N>'"),
    (["n 4", "", "+ 0 y"], 3, "bad vertex id 'y'"),
], ids=["capacity-token", "capacity-1", "one-vertex", "color-no-vertex",
        "density-argument", "missing-header", "vertex-token"])
def test_parse_rejects_with_the_line_number(lines, line_no, message):
    with pytest.raises(WorkloadError) as err:
        parse_workload(lines)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


def _reference_parse(lines):
    """The line-at-a-time parser that parse_workload replaced: strip, test
    for a comment, split, then convert every vertex token as it comes."""
    def vertex(token, n, line_no):
        try:
            v = int(token)
        except ValueError:
            raise WorkloadError(line_no, f"bad vertex id {token!r}")
        if not 0 <= v < n:
            raise WorkloadError(line_no, f"vertex {v} outside [0, {n})")
        return v

    n = None
    ops = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise WorkloadError(line_no, "expected header 'n <N>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise WorkloadError(line_no, f"bad capacity {parts[1]!r}")
            if n < 2:
                raise WorkloadError(line_no, "capacity must be at least 2")
            continue
        kind = parts[0]
        if kind in ("+", "-"):
            if len(parts) != 3:
                raise WorkloadError(line_no, f"expected '{kind} u v'")
            u, v = vertex(parts[1], n, line_no), vertex(parts[2], n, line_no)
            if u == v:
                raise WorkloadError(line_no, "self-loops are not allowed")
            ops.append(WorkloadOp(line_no, kind, u, v))
        elif kind == "?":
            if len(parts) < 2 or parts[1] not in QUERY_KINDS:
                raise WorkloadError(
                    line_no, f"unknown query {' '.join(parts[1:2])!r}")
            q = parts[1]
            if q in ("color", "matvec"):
                if len(parts) != 3:
                    raise WorkloadError(line_no, f"expected '? {q} <vertex>'")
                ops.append(WorkloadOp(line_no, q,
                                      vertex(parts[2], n, line_no)))
            else:
                if len(parts) != 2:
                    raise WorkloadError(line_no, f"expected '? {q}'")
                ops.append(WorkloadOp(line_no, q))
        elif kind == "!":
            if len(parts) != 2 or parts[1] != "audit":
                raise WorkloadError(line_no, "expected '! audit'")
            ops.append(WorkloadOp(line_no, "audit"))
        else:
            raise WorkloadError(line_no, f"unknown op {kind!r}")
    if n is None:
        raise WorkloadError(1, "missing header 'n <N>'")
    return n, ops


def _parse_outcome(parse, lines):
    """(n, ops) with each op's type, or the error's line number and text."""
    try:
        n, ops = parse(lines)
    except WorkloadError as err:
        return "error", err.line_no, str(err)
    return n, [(type(op), op) for op in ops]


# Vertex tokens for a capacity of 64: plain ids, and spellings int() also
# accepts (zero-padded, signed, an Arabic-Indic digit), so that "5" and
# "05", "0" and "-0", "1" and "\u0661" name one vertex.  Bad tokens are a
# non-number, a decimal and ids outside [0, 64).
_TOKENS = st.one_of(
    st.integers(0, 63).map(str),
    st.sampled_from(["05", "007", "+3", "-0", "\u0661"]))
_BAD_TOKENS = st.sampled_from(["x", "1.5", "0x1", "64", "99", "-1"])
_GAPS = st.sampled_from([" ", "  ", "\t", " \t", "\u00a0"])


@st.composite
def _workload_lines(draw):
    """Comments and blank lines, a header (or a wrong one, or none), then
    mostly valid ops mixed with every kind of malformed line."""
    def line(words):
        gaps = draw(st.lists(_GAPS, min_size=len(words), max_size=len(words)))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        end = draw(st.sampled_from(["", "\n", " \n", "\t"]))
        return lead + "".join(
            g + w for g, w in zip([""] + gaps, words)) + end

    update = st.tuples(st.sampled_from(["+", "-"]), _TOKENS, _TOKENS)
    valid = st.one_of(  # updates drawn four times as often as the rest
        update, update, update, update,
        st.tuples(st.just("?"), st.sampled_from(QUERY_KINDS[:3])),
        st.tuples(st.just("?"), st.sampled_from(QUERY_KINDS[3:]), _TOKENS),
        st.just(("!", "audit")),
        st.sampled_from([(), ("#",), ("#", "+", "0", "1"), ("#x", "y")]),
    )
    malformed = st.one_of(
        st.tuples(st.sampled_from(["+", "-"]), _TOKENS),
        st.tuples(st.sampled_from(["+", "-"]), _TOKENS, _TOKENS, _TOKENS),
        st.tuples(st.just("?"), st.sampled_from(QUERY_KINDS + ("x",)),
                  _TOKENS, _TOKENS),
        st.tuples(st.just("?"), st.sampled_from(QUERY_KINDS[3:])),
        st.sampled_from([("?",), ("!",), ("!", "x"), ("!", "audit", "1")]),
        st.tuples(st.sampled_from(["+", "-"]), _TOKENS, _BAD_TOKENS),
        st.tuples(st.sampled_from(["+", "-"]), _BAD_TOKENS, _TOKENS),
        st.tuples(st.sampled_from(["+", "-"]), st.just("5"), st.just("05")),
        st.tuples(st.just("?"), st.sampled_from(QUERY_KINDS[3:]),
                  _BAD_TOKENS),
        st.tuples(st.sampled_from(["*", "+0", "n"]), _TOKENS),
        st.tuples(st.just("n"), st.sampled_from(["64", "x"])),
    )
    head = draw(st.lists(st.sampled_from(
        [(), ("#",), ("#", "n", "64"), ("#+", "0", "1")]), max_size=3))
    header = draw(st.one_of(
        st.sampled_from([("n", "64"), ("n", "064")]),
        st.sampled_from([("n", "1"), ("n", "x"), ("n",), ("n", "64", "8"),
                         ("+", "0", "1"), None])))
    size = draw(st.integers(0, 40))
    body = draw(st.lists(valid, min_size=size, max_size=size))
    for at, bad in draw(st.lists(
            st.tuples(st.integers(0, len(body)), malformed), max_size=2)):
        body.insert(at, bad)
    words = head + ([header] if header is not None else []) + body
    return [line(list(w)) for w in words]


@settings(max_examples=200, deadline=None, database=None)
@given(_workload_lines())
def test_parse_matches_the_line_at_a_time_reference(lines):
    assert (_parse_outcome(parse_workload, lines)
            == _parse_outcome(_reference_parse, lines))


def test_parse_converts_each_vertex_token_once(monkeypatch):
    # 20,000 updates name 40,000 vertex tokens; the parser converts each
    # distinct token once and looks the rest up.
    lines = generate("random", 500, 20000, seed=3)
    tokens = {tok for line in lines[1:] for tok in line.split()[1:]}
    calls = []
    convert = workload._vertex

    def counted(token, n, line_no):
        calls.append(token)
        return convert(token, n, line_no)

    monkeypatch.setattr(workload, "_vertex", counted)
    n, ops = parse_workload(lines)
    assert len(ops) == 20000
    assert len(calls) == len(set(calls)) <= len(tokens) <= n
    assert (n, ops) == _reference_parse(lines)


class TestGenerators:
    def test_unknown_kind_and_tiny_capacity_are_rejected(self):
        with pytest.raises(ValueError, match="unknown generator kind"):
            generate("no-such-kind", 8, 10)
        # The error parse_workload gives for the header 'n 1'.
        with pytest.raises(WorkloadError) as err:
            generate("random", 1, 10)
        assert str(err.value) == "line 1: capacity must be at least 2"

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_every_small_input_parses(self, kind):
        # Clique sizes out of range are clamped, so the output never names
        # a vertex outside the declared capacity.
        for n in range(2, 13):
            for clique in (-1, 0, 1, n + 3):
                params = ({"clique": clique} if kind in (
                    "drifting-density", "clique-plus-path") else {})
                lines = generate(kind, n, 60, seed=n, **params)
                assert parse_workload(lines)[0] == n

    def test_same_seed_byte_identical(self):
        a = generate("random", 50, 1000, seed=7)
        b = generate("random", 50, 1000, seed=7)
        assert a == b
        assert a != generate("random", 50, 1000, seed=8)

    def test_all_kinds_parse_and_replay(self):
        for kind in ("random", "drifting-density", "clique-plus-path",
                     "star-churn"):
            lines = generate(kind, 24, 150, seed=3, audit_every=40)
            n, ops = parse_workload(lines)
            cfg = OrientationConfig.fast_additive(n)
            result = replay(n, ops, cfg, oracle_limit=24)
            assert result.audits > 0

    def test_star_churn_keeps_arboricity_one(self):
        lines = generate("star-churn", 16, 200, seed=5)
        n, ops = parse_workload(lines)
        live = set()
        for i, op in enumerate(ops):
            if op.kind == "+":
                live.add((op.u, op.v))
            elif op.kind == "-":
                live.discard((op.u, op.v))
            if i % 50 == 0 and live:
                assert exact_arboricity(
                    max(max(e) for e in live) + 1, sorted(live)) == 1

    def test_drifting_density_rises_and_falls(self):
        lines = generate("drifting-density", 40, 400, seed=9, clique=8)
        n, ops = parse_workload(lines)
        live = set()
        trace = []
        for i, op in enumerate(ops):
            if op.kind == "+":
                live.add((op.u, op.v))
            elif op.kind == "-":
                live.discard((op.u, op.v))
            if i % 40 == 0:
                rho, _ = exact_density(n, sorted(live))
                trace.append(rho)
        peak = max(trace)
        assert peak > trace[0] and peak > trace[-1]


class TestReplay:
    def test_k4_density_estimate_with_audits(self):
        lines = _k4_workload() + ["! audit", "? density"]
        n, ops = parse_workload(lines)
        cfg = OrientationConfig.eps_density(n, 0.5)
        out = io.StringIO()
        result = replay(n, ops, cfg, csv_out=out, query_out=io.StringIO())
        assert result.audits == 1
        # exact fraction answer within [3/2, 9/4]
        from fractions import Fraction
        frac = Fraction(result.query_lines[0].split()[1])
        assert Fraction(3, 2) <= frac <= Fraction(9, 4)
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert rows[0][:3] == ["op_index", "op_kind", "copy_flips"]
        assert len(rows) == 1 + len(ops)

    def test_deleting_absent_edge_names_the_line(self):
        lines = ["n 4", "+ 0 1", "- 2 3"]
        n, ops = parse_workload(lines)
        cfg = OrientationConfig.simple_additive(n)
        with pytest.raises(WorkloadError) as err:
            replay(n, ops, cfg)
        assert "line 3" in str(err.value)

    def test_density_query_needs_eps_preset(self):
        lines = ["n 4", "+ 0 1", "? density"]
        n, ops = parse_workload(lines)
        with pytest.raises(WorkloadError) as err:
            replay(n, ops, OrientationConfig.simple_additive(n))
        assert "line 3" in str(err.value)

    def test_app_queries_answered(self):
        lines = ["n 6", "+ 0 1", "+ 2 3", "? matching", "? color 0",
                 "? matvec 0"]
        n, ops = parse_workload(lines)
        result = replay(n, ops, OrientationConfig.fast_additive(n))
        assert result.query_lines[0] == "matching 0-1 2-3"
        assert result.query_lines[1].startswith("color 0 = ")
        assert result.query_lines[2].startswith("matvec 0 = ")

    def test_audit_above_the_oracle_limit_counts_its_skipped_check(
            self, tmp_path, capsys):
        # Above FLOW_LIMIT_DEFAULT the audit runs without the exact density
        # comparison; the summary and the CLI line say so.
        top = FLOW_LIMIT_DEFAULT
        lines = [f"n {top + 1}", "+ 0 1", f"+ 1 {top}", "! audit"]
        n, ops = parse_workload(lines)
        result = replay(n, ops, OrientationConfig.fast_additive(n))
        assert result.summary()["audits"] == 1
        assert result.summary()["oracle_skipped"] == 1
        # Within the limit the comparison runs.
        n, ops = parse_workload([f"n {top}"] + lines[1:2]
                                + [f"+ 1 {top - 1}", "! audit"])
        result = replay(n, ops, OrientationConfig.fast_additive(n))
        assert result.summary()["oracle_skipped"] == 0
        wl = tmp_path / "w.txt"
        wl.write_text("\n".join(lines) + "\n")
        assert cli_main(["replay", str(wl)]) == 0
        out = capsys.readouterr().out
        assert "1 audits clean, 1 skipped the exact-density check" in out



def test_bench_runs_presets_on_one_workload():
    lines = generate("random", 20, 120, seed=13)
    n, ops = parse_workload(lines)
    out = io.StringIO()
    runs = bench(n, ops, ["simple-additive", "fast-additive"], csv_out=out)
    assert set(runs) == {"simple-additive", "fast-additive"}
    header = out.getvalue().splitlines()[0].split(",")
    assert "copy_flips_simple-additive" in header
    assert "max_outdeg_fast-additive" in header


def test_cli_end_to_end(tmp_path):
    wl = tmp_path / "w.txt"
    csv_path = tmp_path / "m.csv"
    run = _run_cli
    r = run("generate", "--kind", "random", "--n", "16", "--steps", "80",
            "--seed", "4", "--audit-every", "20", "--out", str(wl))
    assert r.returncode == 0, r.stderr
    r = run("replay", str(wl), "--preset", "eps-density", "--epsilon", "0.5",
            "--out", str(csv_path))
    assert r.returncode == 0, r.stderr
    assert "audits clean" in r.stdout
    assert csv_path.read_text().startswith("op_index,")
    r = run("oracle", "density", str(wl))
    assert r.returncode == 0 and r.stdout.startswith("density ")
    # The printed witness reaches the printed density, the exact maximum.
    n, ops = load_workload(wl)
    edges = _final_edges(ops)
    rho_text, witness_text = r.stdout[len("density "):].split(" witness")
    rho = Fraction(rho_text)
    assert rho == exact_density_enum(n, edges) > 0
    assert subgraph_density(map(int, witness_text.split()), edges) == rho
    r = run("oracle", "arboricity", str(wl))
    assert r.returncode == 0 and r.stdout.startswith("arboricity ")
    # errors surface with the line number and a nonzero exit
    bad = tmp_path / "bad.txt"
    bad.write_text("n 4\n- 0 1\n")
    r = run("replay", str(bad))
    assert r.returncode == 2 and "line 2" in r.stderr


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "1"],
    ["generate", "--kind", "star-churn", "--n", "1"],
    ["bench", "--presets", ","],
    ["replay", "--preset", "eps-density", "--epsilon", "nan"],
    ["replay", "--preset", "eps-density", "--epsilon", "inf"],
], ids=["random-n1", "star-churn-n1", "no-presets", "epsilon-nan",
        "epsilon-inf"])
def test_cli_rejects_bad_input_with_one_error_line(argv, tmp_path, capsys):
    wl = tmp_path / "w.txt"
    wl.write_text("n 4\n+ 0 1\n")
    argv = argv[:1] + ([str(wl)] if argv[0] in ("bench", "replay") else
                       ["--out", str(tmp_path / "g.txt")]) + argv[1:]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("target, fake, preset, message", [
    ("audit_state", lambda stack: ["invariant broken at (0, 1)"],
     "fast-additive", "audit failed: invariant broken at (0, 1)"),
    ("exact_density", lambda n, edges, limit: (Fraction(9), []),
     "fast-additive", "estimate 1/2 below exact density 9"),
    ("exact_density", lambda n, edges, limit: (Fraction(1, 10), []),
     "eps-density", "estimate 1/2 above (1+eps) * density 1/10"),
], ids=["audit", "below", "above"])
def test_replay_names_the_line_of_a_failed_check(target, fake, preset,
                                                  message, monkeypatch):
    # The first audit passes; the check fails on the second, at line 5.
    real = getattr(dynorient.harness, target)
    calls = []

    def patched(*args, **kwargs):
        calls.append(1)
        return (fake if len(calls) == 2 else real)(*args, **kwargs)

    monkeypatch.setattr(dynorient.harness, target, patched)
    n, ops = parse_workload(["n 6", "+ 0 1", "! audit", "+ 2 3", "! audit",
                             "! audit"])
    cfg = OrientationConfig.from_preset(preset, n, epsilon=0.5)
    with pytest.raises(WorkloadError) as err:
        replay(n, ops, cfg)
    assert err.value.line_no == 5
    assert str(err.value) == f"line 5: {message}"


def test_replay_determinism_with_event_log(tmp_path):
    lines = generate("drifting-density", 32, 300, seed=21, clique=6)
    wl = tmp_path / "w.txt"
    wl.write_text("\n".join(lines) + "\n")
    outs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"{tag}.csv"
        log_path = tmp_path / f"{tag}.log"
        r = _run_cli("replay", str(wl), "--preset", "fast-multiplicative",
                     "--out", str(csv_path), "--event-log", str(log_path))
        assert r.returncode == 0, r.stderr
        rows = [row.rsplit(",", 1)[0]  # strip the wall_nanos column
                for row in csv_path.read_text().splitlines()]
        outs.append((rows, log_path.read_text()))
    assert outs[0] == outs[1]


def test_cli_subcommands_in_process(tmp_path, capsys):
    # generate, bench and oracle through cli.main itself; the subprocess
    # test above checks the exit codes of a separate interpreter.
    wl = tmp_path / "w.txt"
    assert cli_main(["generate", "--kind", "drifting-density", "--n", "16",
                     "--steps", "120", "--seed", "4", "--clique", "5",
                     "--out", str(wl)]) == 0
    assert wl.read_text().splitlines() == generate(
        "drifting-density", 16, 120, seed=4, clique=5)
    bench_csv = tmp_path / "b.csv"
    assert cli_main(["bench", str(wl), "--out", str(bench_csv)]) == 0
    header = bench_csv.read_text().splitlines()[0]
    assert header == ("op_index,op_kind,copy_flips_simple-additive,"
                      "max_outdeg_simple-additive,copy_flips_fast-additive,"
                      "max_outdeg_fast-additive")
    capsys.readouterr()
    n, ops = load_workload(wl)
    edges = _final_edges(ops)
    rho, _ = exact_density(n, edges)
    k, _ = exact_min_max_outdegree(n, edges)
    for quantity, want in (("density", f"density {rho} witness "),
                           ("orient", f"min-max-outdegree {k}\n"),
                           ("arboricity",
                            f"arboricity {exact_arboricity(n, edges)}\n")):
        assert cli_main(["oracle", quantity, str(wl)]) == 0
        assert capsys.readouterr().out.startswith(want)
    assert cli_main(["oracle", "density", str(wl), "--limit", "8"]) == 2
    assert "error: " in capsys.readouterr().err


def test_replay_rejects_a_config_of_another_capacity():
    n, ops = parse_workload(["n 12", "+ 0 1"])
    with pytest.raises(WorkloadError, match="capacity 12 differs from "
                                            "config capacity 16"):
        replay(n, ops, OrientationConfig.simple_additive(16))


def test_replay_answers_densest():
    # A K_5 among a path: extraction under eps-density returns the clique.
    lines = (["n 12"] + [f"+ {u} {v}" for u, v in clique_edges(5)]
             + [f"+ {v} {v + 1}" for v in range(5, 11)] + ["? densest"])
    n, ops = parse_workload(lines)
    out = io.StringIO()
    result = replay(n, ops, OrientationConfig.eps_density(n, 0.5),
                    query_out=out)
    [line] = result.query_lines
    assert out.getvalue() == line + "\n"
    word, *vertices = line.split()
    assert word == "densest" and sorted(map(int, vertices)) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eps_density_sandwich_at_n_500(seed):
    # Every audit compares the estimate with the exact density, which must
    # sandwich it: rho <= estimate <= (1 + eps) * rho.  replay raises on a
    # violation.
    n, ops = parse_workload(generate("random", 500, 3000, seed=seed))
    result = replay(n, ops, OrientationConfig.eps_density(n, 0.5),
                    audit_every=500, oracle_limit=500)
    s = result.summary()
    assert s["audits"] == 6
    assert s["oracle_skipped"] == 0
