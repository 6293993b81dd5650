"""Command line behavior: output shapes, exit codes, determinism."""

import csv
import io
import json
import time
from pathlib import Path

import pytest

from gnsenum import cli
from gnsenum.counting import _KNOWN_COUNTS


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(argv)
    captured = capsys.readouterr()
    return ei.value.code, captured.err


def test_count_text(capsys):
    code, out, err = run(["count", "--dim", "2", "--order", "lex",
                          "--mode", "representatives", "--gmax", "6"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0,1"
    assert lines[-1] == "6,323"
    assert err == ""


def test_count_modes(capsys):
    code, out, _ = run(["count", "--dim", "2", "--mode", "all",
                        "--gmax", "4"], capsys)
    assert code == 0
    assert out.splitlines() == ["0,1", "1,2", "2,7", "3,23", "4,71"]
    code, out, _ = run(["count", "--dim", "2", "--mode", "equivariant",
                        "--gmax", "4"], capsys)
    assert code == 0
    assert out.splitlines() == ["0,1", "1,0", "2,1", "3,1", "4,3"]


def test_count_fixed_genus(capsys):
    code, out, _ = run(["count", "--dim", "2", "--tree", "fixed-genus",
                        "--genus", "5"], capsys)
    assert code == 0
    assert out.splitlines() == ["5,107"]


def test_count_json(capsys):
    code, out, _ = run(["count", "--dim", "2", "--gmax", "3",
                        "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 2
    assert doc["order"] == "lex"
    assert doc["mode"] == "representatives"
    assert doc["rows"][-1] == {"g": 3, "count": 12}


def test_count_csv(capsys):
    code, out, _ = run(["count", "--dim", "2", "--gmax", "2",
                        "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["g", "count"]
    assert rows[1:] == [["0", "1"], ["1", "1"], ["2", "4"]]


def test_count_output_file(tmp_path, capsys):
    dest = tmp_path / "table.txt"
    code, out, _ = run(["count", "--dim", "2", "--gmax", "2",
                        "--output", str(dest)], capsys)
    assert code == 0
    assert out == ""
    assert dest.read_text().splitlines() == ["0,1", "1,1", "2,4"]


def test_enumerate_text(capsys):
    code, out, _ = run(["enumerate", "--dim", "2", "--genus", "1",
                        "--mode", "representatives"], capsys)
    assert code == 0
    assert out == "[(0,1)]\n"
    code, out, _ = run(["enumerate", "--dim", "2", "--genus", "2",
                        "--mode", "all"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 7


def test_enumerate_orders_gaps_by_active_order(capsys):
    code, out, _ = run(["enumerate", "--dim", "2", "--genus", "3",
                        "--order", "glex", "--mode", "representatives"],
                       capsys)
    assert code == 0
    assert len(out.splitlines()) == 12
    for line in out.splitlines():
        assert line.startswith("[(")


def test_enumerate_json(capsys):
    code, out, _ = run(["enumerate", "--dim", "2", "--genus", "2",
                        "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["genus"] == 2
    assert len(doc["semigroups"]) == 4
    assert [[0, 1], [0, 2]] in doc["semigroups"]


def test_enumerate_fixed_genus_equals_frontier(capsys):
    code, a, _ = run(["enumerate", "--dim", "2", "--genus", "4"], capsys)
    assert code == 0
    code, b, _ = run(["enumerate", "--dim", "2", "--genus", "4",
                      "--tree", "fixed-genus"], capsys)
    assert code == 0
    assert sorted(a.splitlines()) == sorted(b.splitlines())


def test_enumerate_thread_determinism(capsys):
    outs = []
    for threads in ("1", "2", "8"):
        code, out, _ = run(["enumerate", "--dim", "2", "--genus", "5",
                            "--threads", threads], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_enumerate_fixed_genus_parallel_keeps_order(monkeypatch, capsys):
    # two workers even on a one-core machine, so the parallel path runs
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    outs = []
    for threads in ("1", "2"):
        code, out, _ = run(["enumerate", "--dim", "2", "--genus", "7",
                            "--tree", "fixed-genus", "--threads", threads],
                           capsys)
        assert code == 0
        outs.append(out)
    assert len(outs[0].splitlines()) == 953
    assert outs[1] == outs[0]


def test_verify_cells_ok(capsys):
    code, out, _ = run(["verify", "--cells", "N:2:1..8"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "N_{8,2}=2798 ok" in lines
    assert all(line.endswith(" ok") for line in lines)


def test_verify_cells_full_kind(capsys):
    code, out, _ = run(["verify", "--cells", "n:2:1..5"], capsys)
    assert code == 0
    assert "n_{5,2}=210 ok" in out.splitlines()


def test_verify_identity_and_stabilization(capsys):
    code, out, _ = run(["verify", "--identity", "--g", "4", "--dim", "3"],
                       capsys)
    assert code == 0
    assert "identity g=4 d=3" in out
    code, out, _ = run(["verify", "--stabilization", "--g", "3",
                        "--dmax", "5"], capsys)
    assert code == 0
    assert "stabilization g=3 dmax=5" in out


def test_verify_json(capsys):
    code, out, _ = run(["verify", "--cells", "N:2:2..3",
                        "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["checks"][0]["check"] == "N_{2,2}"


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(_KNOWN_COUNTS[("representative", 2)], 3, 13)
    code, out, _ = run(["verify", "--cells", "N:2:2..3"], capsys)
    assert code == 1
    assert "MISMATCH expected 13" in out


def test_verify_cells_outside_table(capsys):
    code, err = run_usage_error(["verify", "--cells", "N:2:1..99"], capsys)
    assert code == 2
    assert "no recorded count" in err


def test_verify_resource_limit_exits_3(capsys):
    code, out, err = run(["verify", "--identity", "--g", "9", "--dim", "5"],
                         capsys)
    assert code == 3
    assert out == ""
    assert "resource limit" in err


def test_usage_errors_exit_2(capsys):
    cases = [
        ["count", "--dim", "2"],                                   # no gmax
        ["count", "--dim", "0", "--gmax", "2"],
        ["count", "--dim", "9", "--gmax", "2"],
        ["count", "--dim", "2", "--tree", "fixed-genus", "--genus", "3",
         "--gmax", "5"],
        ["count", "--dim", "2", "--tree", "fixed-genus", "--genus", "-1"],
        ["count", "--dim", "2", "--gmax", "2", "--threads", "0"],
        ["count", "--dim", "2", "--gmax", "2", "--genus", "5"],    # frontier
        ["verify", "--cells", "N:2:1..2", "--threads", "0"],
        ["count", "--dim", "2", "--gmax", "3", "--tree",
         "fixed-genus", "--order", "glex", "--genus", "3"],
        ["count", "--dim", "2", "--tree", "fixed-genus",
         "--genus", "3", "--mode", "all"],
        ["enumerate", "--dim", "2"],                               # no genus
        ["verify"],
        ["verify", "--cells", "x:2:1..3"],
        ["verify", "--cells", "N:2"],
        ["verify", "--cells", "N:2:5..1"],
        ["verify", "--identity", "--g", "3"],                      # no dim
        ["verify", "--stabilization", "--g", "5", "--dmax", "3"],
        ["verify", "--identity", "--g", "0", "--dim", "2"],
        ["oracle", "--dim", "9", "--genus", "1"],
        ["oracle", "--dim", "2", "--genus", "-1"],
    ]
    # argparse reports an unknown command or flag through the top-level
    # parser; --checkpoint is count's alone, since a resumed walk does not
    # revisit the finished seeds that an enumeration would list
    top_level = [
        ["enumerate", "--dim", "2", "--genus", "2", "--checkpoint", "c.txt"],
        ["badcmd"],
    ]
    for argv in cases + top_level:
        code, err = run_usage_error(argv, capsys)
        assert code == 2, argv
        assert "error:" in err and "Traceback" not in err, argv
        # the usage line belongs to the subcommand that was run
        used = "[-h] {count" if argv in top_level else argv[0] + " [-h]"
        assert err.startswith(f"usage: gnsenum {used}"), argv


def test_verify_identity_and_stabilization_pass_order_and_threads(
        monkeypatch, capsys):
    # stand-ins that record what the checks ask for and walk nothing
    from gnsenum import counting

    seen = []

    def fake_count(kind, d, g_max=None, workers=1, checkpoint=None):
        seen.append(("count", kind.order.name, workers))
        return counting.CountTable(d=d, order=kind.order.name,
                                   mode="representative", rows={g_max: 7})

    def fake_count_by_span(d, g, order=None, workers=1):
        seen.append(("count_by_span", order.name, workers))
        return (0,) * (d - 1) + (7 if d == 1 else 0,)

    monkeypatch.setattr(counting, "count", fake_count)
    monkeypatch.setattr(counting, "count_by_span", fake_count_by_span)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    code, out, _ = run(["verify", "--identity", "--g", "3", "--dim", "2",
                        "--order", "order1", "--threads", "2"], capsys)
    assert code == 0, out
    assert seen == [("count", "order1", 2),
                    ("count_by_span", "order1", 2),
                    ("count_by_span", "order1", 2)]
    seen.clear()
    code, out, _ = run(["verify", "--stabilization", "--g", "2", "--dmax", "3",
                        "--order", "glex", "--threads", "3"], capsys)
    assert code == 0, out
    assert seen == [("count", "glex", 3)] * 2


def test_threads_capped_at_cpu_count(inline_pool, monkeypatch, capsys):
    # where the platform has no affinity set, the host's CPU count caps
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    code, out, _ = run(["count", "--dim", "2", "--gmax", "4",
                        "--threads", "100000"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "4,37"
    assert inline_pool == [3]


def test_threads_capped_at_the_affinity_set(inline_pool, monkeypatch, capsys):
    # a process pinned to one CPU of a 64-CPU host walks in-process
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    code, out, _ = run(["count", "--dim", "2", "--gmax", "4",
                        "--threads", "8"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "4,37"
    assert inline_pool == []


def test_broken_pool_exits_0(monkeypatch, capsys):
    # a worker killed mid-level breaks the pool; the walk finishes in this
    # process and prints what the sequential walk prints
    from concurrent.futures.process import BrokenProcessPool

    from gnsenum import trees

    class BrokenPool:
        def __init__(self, max_workers):
            pass

        def map(self, fn, items):
            raise BrokenProcessPool("a child process terminated abruptly")

        def shutdown(self):
            pass

    argv = ["count", "--dim", "2", "--gmax", "5", "--mode", "all"]
    code, want, _ = run(argv, capsys)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(trees, "ProcessPoolExecutor", BrokenPool)
    code, out, err = run(argv + ["--threads", "2"], capsys)
    assert code == 0, err
    assert out == want


def test_oracle_subcommand_hidden_but_working(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    help_text = capsys.readouterr().out
    assert "oracle" not in help_text
    code, out, _ = run(["oracle", "--dim", "2", "--genus", "2"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 7
    code, out, _ = run(["oracle", "--dim", "2", "--genus", "3",
                        "--representatives", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 12


def test_oracle_guard_exits_3(capsys):
    code, _, err = run(["oracle", "--dim", "2", "--genus", "9"], capsys)
    assert code == 3
    assert "resource limit" in err


def test_checkpointed_run(tmp_path, capsys):
    ck = tmp_path / "cli.ck"
    code, first, _ = run(["count", "--dim", "2", "--gmax", "3",
                          "--checkpoint", str(ck)], capsys)
    assert code == 0
    code, again, _ = run(["count", "--dim", "2", "--gmax", "5",
                          "--checkpoint", str(ck)], capsys)
    assert code == 0
    assert again.splitlines()[:4] == first.splitlines()
    assert again.splitlines()[-1] == "5,107"


def test_bad_checkpoint_or_output_exits_2(tmp_path, capsys):
    from gnsenum.trees import TreeKind, traverse
    from gnsenum.core import LEX

    foreign = tmp_path / "rep.ck"
    traverse(TreeKind("representative", LEX), 2, 2, checkpoint=str(foreign))
    garbage = tmp_path / "garbage.ck"
    garbage.write_text("garbage\n")
    # a level-2 node that is no semigroup's: (0,2) = (0,1) + (0,1)
    not_closed = tmp_path / "not-closed.ck"
    traverse(TreeKind("full", LEX), 2, 2, checkpoint=str(not_closed))
    lines = not_closed.read_text().splitlines(keepends=True)
    lines[1] = "[(0,2),(1,0)]\n"
    not_closed.write_text("".join(lines))
    # a level-2 node with a point outside the universe of the walk
    outside = tmp_path / "outside.ck"
    traverse(TreeKind("full", LEX), 2, 2, checkpoint=str(outside))
    lines = outside.read_text().splitlines(keepends=True)
    lines[1] = "[(0,1),(0,40)]\n"
    outside.write_text("".join(lines))
    missing = str(tmp_path / "no-such-dir" / "x.ck")
    count = ["count", "--dim", "2", "--gmax", "3", "--mode", "all"]
    cases = [
        (count + ["--checkpoint", str(foreign)], "not full"),
        (count + ["--checkpoint", str(garbage)], "header"),
        (count + ["--checkpoint", str(not_closed)],
         "are not those of a walk to genus 2"),
        (count + ["--checkpoint", str(outside)],
         "are not those of a walk to genus 2"),
        # the message names the path given, not a temporary file beside it
        (count + ["--checkpoint", missing], f"No such file or directory: {missing!r}"),
        (count + ["--output", missing], f"No such file or directory: {missing!r}"),
    ]
    for argv, why in cases:
        code, err = run_usage_error(argv, capsys)
        assert code == 2, argv
        assert err.startswith("usage: gnsenum count [-h]"), argv
        assert "error:" in err and why in err, argv
        assert "Traceback" not in err, argv


def test_walk_genus_past_the_bound_exits_2_or_3(tmp_path, capsys):
    # a header gmax sized the counts list and the universe before any
    # check: 10**12 died with a MemoryError traceback, 300000 took 2.9 GB
    ck = tmp_path / "walk.ck"
    count = ["count", "--dim", "2", "--mode", "all", "--gmax", "3",
             "--checkpoint", str(ck)]
    code, _, _ = run(count, capsys)
    assert code == 0
    text = ck.read_text()
    for gmax in ("1000000000000", "300000"):
        ck.write_text(text.replace(" gmax=3 ", f" gmax={gmax} ", 1))
        t0 = time.monotonic()
        code, err = run_usage_error(count, capsys)
        assert time.monotonic() - t0 < 1
        assert code == 2
        assert f"checkpoint gmax {gmax} is past 100" in err
        assert "Traceback" not in err
    # no walk past the bound could finish, so none starts
    for walk in (["--mode", "all", "--gmax", "101"],
                 ["--tree", "fixed-genus", "--genus", "101"]):
        code, _, err = run(["count", "--dim", "1"] + walk, capsys)
        assert code == 3
        assert "capped at genus 100" in err


def test_seed_lines_of_another_genus_exit_2_before_the_planting(tmp_path, capsys):
    # a d=8 file of a walk to genus 2 with its header edited to gmax=100
    # planted the seeds of a walk to genus 100 before it read a seed line:
    # it ran 31 s and died with a MemoryError
    ck = tmp_path / "walk.ck"
    count = ["count", "--dim", "8", "--mode", "all", "--gmax", "2",
             "--checkpoint", str(ck)]
    code, _, _ = run(count, capsys)
    assert code == 0
    text = ck.read_text()
    assert " gmax=2 " in text
    ck.write_text(text.replace(" gmax=2 ", " gmax=100 ", 1))
    t0 = time.monotonic()
    code, err = run_usage_error(count, capsys)
    assert time.monotonic() - t0 < 1
    assert code == 2
    assert "holds 2 gaps, which no seed of a walk to genus 100 has" in err
    assert "Traceback" not in err


def test_seedless_checkpoint_exits_2_before_the_planting(tmp_path, capsys, monkeypatch):
    # a file with no seed line leaves the gap-count check nothing to read:
    # a d=5 equivariant walk to genus 2 has no seed (the orbit of (1,0,0,0,0)
    # already has 5 points), and with its header edited to gmax=100 it
    # planted the walk to genus 100, 2.85 s and 227 MB, before it was
    # refused.  Both it and a d=8 full header with no seed are refused
    # before any planting
    from gnsenum import checkpoint, trees
    from gnsenum.core import LEX
    from gnsenum.trees import TreeKind

    ck = tmp_path / "walk.ck"
    eq = ["count", "--dim", "5", "--mode", "equivariant", "--gmax", "2",
          "--checkpoint", str(ck)]
    code, _, _ = run(eq, capsys)
    assert code == 0
    text = ck.read_text()
    assert " gmax=2 seeds=0 " in text
    ck.write_text(text.replace(" gmax=2 ", " gmax=100 ", 1))
    full = tmp_path / "full.ck"
    full.write_text(checkpoint._header(TreeKind("full", LEX), 8, 100,
                                       [1] + [0] * 100, 0, 0) + "\n")

    def no_plant(*args):
        raise AssertionError("planted")

    monkeypatch.setattr(trees, "_plant", no_plant)
    for argv in (eq, ["count", "--dim", "8", "--mode", "all", "--gmax", "100",
                      "--checkpoint", str(full)]):
        code, err = run_usage_error(argv, capsys)
        assert code == 2, argv
        assert "holds no seed, but a walk to genus 100 has some" in err
        assert "Traceback" not in err


def test_checkpoint_counts_below_the_seed_levels_exit_2(tmp_path, capsys):
    # a file whose counts cannot be those of its walk: resumed, it printed
    # 1,-98 and doubled every row past the seeds
    ck = tmp_path / "walk.ck"
    count = ["count", "--dim", "2", "--mode", "all", "--gmax", "6",
             "--checkpoint", str(ck)]
    code, fresh, _ = run(count, capsys)
    assert code == 0
    text = ck.read_text()
    assert " done=0-70 counts=0:1,1:2," in text
    ck.write_text(text.replace(" done=0-70 counts=0:1,1:2,",
                               " done= counts=0:1,1:-98,", 1))
    code, err = run_usage_error(count, capsys)
    assert code == 2
    assert "fall below those of the levels above its seeds" in err
    assert "Traceback" not in err
    ck.write_text(text)
    assert run(count, capsys) == (0, fresh, "")


def test_unwritable_output_fails_before_the_walk(tmp_path, monkeypatch, capsys):
    from gnsenum import bruteforce, counting

    def no_walk(*args, **kwargs):
        raise AssertionError("walked although --output cannot be written")

    for module, name in ((counting, "count"), (cli, "traverse"),
                         (bruteforce, "brute_force_all")):
        monkeypatch.setattr(module, name, no_walk)
    missing = str(tmp_path / "no-such-dir" / "o.txt")
    for argv in (["count", "--dim", "2", "--mode", "all", "--gmax", "11"],
                 ["enumerate", "--dim", "2", "--genus", "9"],
                 ["verify", "--cells", "N:2:1..8"],
                 ["oracle", "--dim", "2", "--genus", "4"]):
        code, err = run_usage_error(argv + ["--output", missing], capsys)
        assert code == 2, argv
        assert f"No such file or directory: {missing!r}" in err, argv


def test_failed_command_leaves_no_output_file(tmp_path, capsys):
    # the check that --output can be written removes the file it made, so
    # a command that fails after the check leaves no empty file behind,
    # not even where a dangling symlink points, and a file that was there
    # already keeps its bytes
    garbage = tmp_path / "garbage.ck"
    garbage.write_text("garbage\n")
    out, link = tmp_path / "out.txt", tmp_path / "link.txt"
    link.symlink_to(tmp_path / "target.txt")
    failing = [(["verify", "--cells", "N:2:1..40"], 2),
               (["verify", "--identity", "--g", "9", "--dim", "5"], 3),
               (["count", "--dim", "2", "--gmax", "3",
                 "--checkpoint", str(garbage)], 2)]
    for path, before in ((out, None), (link, None), (out, "kept\n")):
        if before is not None:
            path.write_text(before)
        for argv, want in failing:
            argv = argv + ["--output", str(path)]
            if want == 2:
                code, _ = run_usage_error(argv, capsys)
            else:
                code, _, _ = run(argv, capsys)
            assert code == want, argv
            if before is None:
                assert not path.exists(), argv
            else:
                assert path.read_text() == before, argv
    assert link.is_symlink()


def test_distribution_is_named_after_the_package():
    # pip show gnsenum must find what pip install . installs; read as text,
    # since Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert 'name = "gnsenum"' in project.splitlines()
    assert 'gnsenum = "gnsenum.cli:main"' in text.splitlines()
