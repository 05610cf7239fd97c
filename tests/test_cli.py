import errno
import os
import subprocess
import sys
import threading
import tracemalloc

import pytest

from whittemore import categorical, head, main, marginal_table, read_csv, write_csv
from whittemore.errors import DataFormatError, EvalError, UnknownVariableError
from tests.conftest import KIDNEY_CSV, REPO_ROOT


class TestReadCsv:
    def test_kidney_dataset(self):
        samples = read_csv(str(KIDNEY_CSV))
        assert len(samples) == 700
        assert set(samples[0]) == {"treatment", "size", "success"}
        assert sum(1 for s in samples if s["treatment"] == "surgery") == 350

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        assert read_csv(str(path)) == []

    def test_small_file_matches_example(self, tmp_path):
        path = tmp_path / "xy.csv"
        path.write_text("x,y\n0,0\n0,1\n1,0\n1,1\n1,1\n")
        samples = read_csv(str(path))
        assert len(samples) == 5
        assert samples[-1] == {"x": "1", "y": "1"}

    def test_missing_file(self):
        with pytest.raises(DataFormatError):
            read_csv("definitely-not-here.csv")

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(DataFormatError) as err:
            read_csv(str(path))
        assert ":2" in str(err.value)

    @pytest.mark.parametrize(
        "text, line",
        [
            ('a,b\n"x\ny",1\n3\n', 4),
            ('a,b\r\n"x\r\ny",1\r\n1,2\r\n3\r\n', 5),
            ('a,b\r"x\ry",1\r3\r', 4),
            ('a,b\n"1\n\n2",3\n\n', 5),
            ('a,b\n1,2\n1,2,3\n', 3),
        ],
        ids=["lf", "crlf", "cr", "blank-line", "long-row"],
    )
    def test_ragged_row_reports_the_line_it_starts_on(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataFormatError) as err:
            read_csv(str(path))
        assert f"bad.csv:{line}: expected 2 fields" in str(err.value)

    def test_repeated_ragged_record_is_reported_at_its_first_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n1,2\n3\n")
        with pytest.raises(DataFormatError) as err:
            read_csv(str(path))
        assert str(err.value).endswith("bad.csv:3: expected 2 fields, got 1")

    def test_ragged_record_after_many_repeated_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n" + "1,2\n" * 10_000 + "1,2,3\n")
        with pytest.raises(DataFormatError) as err:
            read_csv(str(path))
        assert str(err.value).endswith("bad.csv:10002: expected 2 fields, got 3")

    def test_repeated_records_share_one_row(self, tmp_path):
        # 20,000 rows of 4 columns, 12 of them distinct: the table keeps
        # each distinct row once plus one small int per row
        distinct = [tuple(f"{c}{i}" for c in "abcd") for i in range(12)]
        path = tmp_path / "repeated.csv"
        path.write_text(
            "a,b,c,d\n" + "".join(",".join(distinct[i * 7 % 12]) + "\n" for i in range(20_000))
        )
        tracemalloc.start()
        try:
            table = read_csv(str(path))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 1_000_000
        assert len(table) == 20_000
        assert table.rows[0] is table.rows[12] and table.rows[0] is not table.rows[1]
        assert table.distinct == tuple(distinct[i * 7 % 12] for i in range(12))
        assert table.codes[:13] == (*range(12), 0)

    def test_slice_is_a_table_coded_on_its_own(self, tmp_path):
        path = tmp_path / "xy.csv"
        path.write_text("x,y\n0,0\n0,1\n1,0\n1,1\n1,1\n")
        samples = read_csv(str(path))
        assert samples.codes == (0, 1, 2, 3, 3)
        tail = samples[2:]
        assert (tail.distinct, tail.codes) == ((("1", "0"), ("1", "1")), (0, 1, 1))
        assert tail == list(samples)[2:] and tail == read_csv(str(path))[2:]
        assert samples[::2] == [samples[0], samples[2], samples[4]]
        assert samples != tail and samples[:0] == []

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
        samples = read_csv(str(path))
        assert samples.header == ("a", "b") and samples == [{"a": "1", "b": "2"}]
        assert categorical(samples).measure({"a": "1"}) == 1.0
        out = tmp_path / "out.csv"
        write_csv(str(out), samples)
        assert out.read_bytes() == b"a,b\r\n1,2\r\n"

    def test_table_is_an_immutable_sequence_of_events(self, tmp_path):
        path = tmp_path / "xy.csv"
        path.write_text("y,x\n0,a\n1,b\n")
        samples = read_csv(str(path))
        assert samples == [{"y": "0", "x": "a"}, {"y": "1", "x": "b"}]
        assert samples == ({"y": "0", "x": "a"}, {"y": "1", "x": "b"})
        assert [{"y": "0", "x": "a"}, {"y": "1", "x": "b"}] == samples
        assert samples != [{"y": "0", "x": "a"}]
        assert samples[1:] == [{"y": "1", "x": "b"}] and samples[-1] == {"y": "1", "x": "b"}
        assert list(samples)[0] is not samples[0]
        samples[0]["x"] = "changed"  # each event is a fresh map
        assert samples[0]["x"] == "a"
        with pytest.raises(AttributeError):
            samples.rows = ()
        with pytest.raises(TypeError):
            samples[0] = {}
        assert not hasattr(samples, "append")

    @pytest.mark.parametrize(
        "header, message",
        [
            ("a,,b", "column 2: variable name must be non-empty"),
            (" ,b", "column 1: invalid variable name: ' '"),
            ("a,a b", "column 2: invalid variable name: 'a b'"),
            ('"a;b",c', "column 1: invalid variable name: 'a;b'"),
        ],
        ids=["empty", "blank", "space", "semicolon"],
    )
    def test_header_cell_that_is_no_name(self, tmp_path, capsys, header, message):
        path = tmp_path / "header.csv"
        path.write_text(header + "\n1,2,3\n")
        with pytest.raises(DataFormatError) as err:
            read_csv(str(path))
        assert str(err.value) == f"{path}:1: {message}"
        script = tmp_path / "read.wt"
        script.write_text(f'(read-csv "{path}")\n')
        assert main(["run", str(script)]) == 1
        assert capsys.readouterr().err == f"{script}: 1:1: {path}:1: {message}\n"

    @pytest.mark.parametrize(
        "text, distinct",
        [
            ('a,b\n1,2\n3,"x\n1,2\n', (("1", "2"), ("3", "x\n1,2\n"))),
            ('a,b\r\n1,2\r\n3,"x\r\n1,2\r\n1,2', (("1", "2"), ("3", "x\r\n1,2\r\n1,2"))),
            ('a,b\n1,2\n3,"x', (("1", "2"), ("3", "x"))),
        ],
        ids=["lf", "crlf-unterminated", "last-line"],
    )
    def test_quote_left_open_takes_the_rest_of_the_file(self, tmp_path, text, distinct):
        # an open quote takes every line after it, even one that repeats a record
        path = tmp_path / "open.csv"
        path.write_bytes(text.encode())
        table = read_csv(str(path))
        assert (table.distinct, table.codes) == (distinct, (0, 1))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize(
        "body", ["1,2\n3,4\n1,2\n", '1,2\n"x\ny",2\n1,2\n'], ids=["whole-lines", "multi-line-record"]
    )
    def test_pipe_reads_as_the_file(self, tmp_path, body):
        # a pipe can be read only once, so no path may seek or read it twice
        text = "a,b\n" + body * 50
        plain = tmp_path / "plain.csv"
        plain.write_text(text)
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)

        def feed():
            with open(pipe, "w") as handle:
                handle.write(text)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            table = read_csv(str(pipe))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        want = read_csv(str(plain))
        assert (table.header, table.distinct, table.codes) == (want.header, want.distinct, want.codes)
        assert len(table) == 150

    def test_missing_header(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            read_csv(str(path))

    def test_quoting_round_trip(self, tmp_path):
        samples = [
            {"a": 'say "hi"', "b": "x,y"},
            {"a": "line\nbreak", "b": "plain"},
        ]
        path = tmp_path / "quoted.csv"
        write_csv(str(path), samples)
        assert read_csv(str(path)) == samples


class TestWriteCsv:
    @pytest.mark.parametrize(
        "text",
        ['b,a\n"x,1","line\nbreak"\n"say ""hi""",plain\n"x,1","line\nbreak"\n', "b,a\n"],
        ids=["rows", "header-only"],
    )
    def test_table_round_trip(self, tmp_path, text):
        source = tmp_path / "in.csv"
        source.write_text(text)
        out = tmp_path / "out.csv"
        write_csv(str(out), read_csv(str(source)))
        assert read_csv(str(out)) == read_csv(str(source))
        assert out.read_text() == text

    def test_non_path_rejected(self):
        # an integer would be taken by open() as a file descriptor
        with pytest.raises(DataFormatError) as err:
            write_csv(5, [{"a": "1"}])
        assert "file path" in str(err.value)

    @pytest.mark.parametrize(
        "samples, message",
        [
            (5, "vector of sample events, got int"),
            ({"a": 1}, "vector of sample events, got dict"),
            ([5], "sample 0 is not a map"),
            ([{"a": 1}, {"b": 2}], "sample 1 has variables ['b'], expected ['a']"),
            ([{"a": 1}, {"a": 2, "b": 3}], "sample 1 has variables ['a', 'b'], expected ['a']"),
        ],
        ids=["int", "map", "non-map-row", "other-keys", "extra-key"],
    )
    def test_bad_samples_rejected_before_writing(self, tmp_path, samples, message):
        path = tmp_path / "out.csv"
        with pytest.raises(DataFormatError) as err:
            write_csv(str(path), samples)
        assert message in str(err.value)
        assert not path.exists()

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(DataFormatError) as err:
            write_csv(str(tmp_path / "missing" / "out.csv"), [{"a": "1"}])
        assert "cannot write" in str(err.value)


class TestHead:
    def test_first_n(self):
        samples = read_csv(str(KIDNEY_CSV))
        assert head(samples, 5) == samples[:5]

    def test_table_gives_a_table_and_list_a_list(self):
        samples = read_csv(str(KIDNEY_CSV))
        first = head(samples, 3)
        assert type(first) is type(samples) and first == list(samples)[:3]
        assert type(head(list(samples), 3)) is list
        assert type(head(tuple(samples), 3)) is list

    def test_non_vector_error_text(self, capsys, tmp_path):
        with pytest.raises(EvalError) as err:
            head(5, 1)
        assert str(err.value) == "head needs a vector of samples, got int"
        path = tmp_path / "head.wt"
        path.write_text("(define a 5)\n(head a 1)\n")
        code, out, err = run_main(capsys, "run", str(path))
        assert (code, err) == (1, f"{path}: 2:1: head needs a vector of samples, got int\n")

    def test_zero(self):
        assert head([{"x": 1}], 0) == []

    def test_clamps(self):
        rows = [{"x": i} for i in range(3)]
        assert head(rows, 10) == rows

    def test_negative_rejected(self):
        with pytest.raises(EvalError):
            head([], -1)


class TestMarginalTable:
    def test_kidney_success(self, kidney):
        text = str(marginal_table(kidney, "success"))
        no_line, yes_line = text.splitlines()
        assert no_line.startswith("no") and repr(138 / 700) in no_line
        assert yes_line.startswith("yes") and repr(562 / 700) in yes_line

    def test_point_mass_gets_full_bar(self):
        d = categorical([{"x": "only"}])
        (line,) = str(marginal_table(d, "x")).splitlines()
        assert line.endswith("#" * 40)

    def test_example_distribution_marginal(self):
        d = categorical(
            [{"x": 0, "y": 0}, {"x": 0, "y": 1}, {"x": 1, "y": 0}, {"x": 1, "y": 1}, {"x": 1, "y": 1}]
        )
        text = str(marginal_table(d, "x"))
        assert repr(0.4) in text and repr(0.6) in text

    def test_unknown_variable(self, kidney):
        with pytest.raises(UnknownVariableError):
            marginal_table(kidney, "age")


# the whole stdout of `whittemore run demo/<name>.wt`
DEMO_OUTPUT = {
    "diagram": (
        "(model {:x [], :y [:x :z_1 :z_2], :z_1 [:x], :z_2 [:z_1]} #{:x :z_2} #{:y :z_1})\n"
    ),
    "front-door": (
        "(model {:x [], :y [:z], :z [:x]} #{:x :y})\n"
        "Σ_{z} [Σ_{x} P(y | x, z) P(x)] P(z | x)\n"
        "  where: x=0\n"
    ),
    "simpson": (
        "#categorical[:size :success :treatment]\n"
        "(model {:size [], :success [:treatment :size], :treatment [:size]})\n"
        "0.78\n"
        "0.8257142857142857\n"
        "0.8325462173856037\n"
        "0.778875\n"
    ),
}


def run_main(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMain:
    def test_simpson_script(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, out, err = run_main(capsys, "run", "demo/simpson.wt")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-4:] == [
            "0.78",
            "0.8257142857142857",
            "0.8325462173856037",
            "0.778875",
        ]

    @pytest.mark.parametrize("module", ["whittemore", "whittemore.cli"])
    def test_python_m_runs_the_cli(self, module):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-m", module, "run", "demo/simpson.wt"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-4:] == [
            "0.78",
            "0.8257142857142857",
            "0.8325462173856037",
            "0.778875",
        ]

    def test_csv_with_byte_order_mark(self, capsys, tmp_path):
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
        path = tmp_path / "bom.wt"
        path.write_text(
            f'(define d (categorical (read-csv "{data.as_posix()}")))\n(measure d {{:a "1"}})\n'
        )
        code, out, err = run_main(capsys, "run", str(path))
        assert (code, err, out.strip().splitlines()[-1:]) == (0, "", ["1.0"])

    def test_unhashable_event_value_measures_zero(self, capsys, tmp_path):
        path = tmp_path / "unhashable.wt"
        path.write_text("(define d (categorical [{:a 1} {:a 2}]))\n(measure d {:a [1 2]})\n")
        code, out, err = run_main(capsys, "run", str(path))
        assert (code, out.strip().splitlines()[-1]) == (0, "0.0")

    def test_non_map_event_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad-event.wt"
        path.write_text("(measure (categorical [{:a 1}]) 5)\n")
        code, out, err = run_main(capsys, "run", str(path))
        assert code == 1
        assert "must be a map" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "script, message",
        [
            ("(measure 5 {:a 1})", "1:1: measure needs a distribution, got int"),
            ("(infer (model {:x []}) 5 (q [:x]))", "1:1: signature needs a distribution, got int"),
            ("\n  (estimate {:a 1} (q [:a]))", "2:3: estimate needs a distribution, got dict"),
            ("(signature [1])", "1:1: signature needs a distribution, got list"),
            ("(marginal-table 5 :x)", "1:1: marginal-table needs a categorical distribution, got int"),
        ],
        ids=["measure", "infer", "estimate", "signature", "marginal-table"],
    )
    def test_non_distribution_argument_exits_1(self, capsys, tmp_path, script, message):
        path = tmp_path / "not-a-distribution.wt"
        path.write_text(script + "\n")
        code, out, err = run_main(capsys, "run", str(path))
        assert code == 1
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "query, message",
        [
            ("(q [:y] :given {:x 2})", "2:1: estimated distribution over [:y] is undefined: "
             "the data have no mass where :x = 2"),
            ('(q [:y] :given {:x "1"})', "2:1: estimated distribution over [:y] is undefined: "
             "the data have no mass where :x = '1'"),
        ],
        ids=["value-outside-the-support", "value-of-another-type"],
    )
    def test_open_estimate_on_an_empty_stratum_exits_1(self, capsys, tmp_path, query, message):
        path = tmp_path / "empty-stratum.wt"
        samples = "[{:x 0 :y 0} {:x 1 :y 1} {:x 0 :y 1}]"
        path.write_text(f"(define d (categorical {samples}))\n(estimate d {query})\n")
        code, out, err = run_main(capsys, "run", str(path))
        assert (code, out) == (1, "")
        assert f"{path}: {message}" in err
        assert "Traceback" not in err

    def test_empty_script(self, capsys, tmp_path):
        path = tmp_path / "empty.wt"
        path.write_text("; nothing here\n")
        code, out, err = run_main(capsys, "run", str(path))
        assert (code, out) == (0, "")

    def test_unbound_symbol_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.wt"
        path.write_text("mystery\n")
        code, out, err = run_main(capsys, "run", str(path))
        assert code == 1
        assert "mystery" in err

    def test_unbound_symbol_error_has_its_position(self, capsys, tmp_path):
        path = tmp_path / "bad.wt"
        path.write_text("(define a 1)\n  foo\n")
        code, out, err = run_main(capsys, "run", str(path))
        assert code == 1
        assert f"{path}: 2:3: unbound symbol: foo" in err

    @pytest.mark.parametrize(
        "number",
        [
            "1e400",
            pytest.param(
                "9" * 5000,
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() reads any number of digits",
                ),
            ),
        ],
        ids=["float", "digits"],
    )
    def test_number_out_of_range_exits_1_with_its_position(self, capsys, tmp_path, number):
        path = tmp_path / "big.wt"
        path.write_text(f"(define big\n  {number})\n")
        code, out, err = run_main(capsys, "run", str(path))
        assert (code, err) == (1, f"{path}: 2:3: number out of range\n")

    def test_deep_unclosed_nesting_exits_1(self, capsys, tmp_path):
        path = tmp_path / "deep.wt"
        path.write_text("[" * 600 + "\n")
        code, out, err = run_main(capsys, "run", str(path))
        assert code == 1
        assert f"{path}: 1:" in err
        assert "Traceback" not in err

    def test_hedge_prints_its_fail_and_exits_0(self, capsys, tmp_path):
        path = tmp_path / "bow.wt"
        path.write_text(
            "(define m (model {:x [] :y [:x]} #{:x :y}))\n(identify m (q [:y] :do [:x]))\n"
        )
        assert run_main(capsys, "run", str(path)) == (0, (
            "(model {:x [], :y [:x]} #{:x :y})\n"
            "Fail: P(y | do(x)) is not identifiable: "
            "hedge over [:x, :y] with confounded subforest [:y]\n"
        ), "")

    def test_missing_script_exits_1(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert run_main(capsys, "run", "nope.wt") == (
            1, "", f"cannot read 'nope.wt': {os.strerror(errno.ENOENT)}\n"
        )

    def test_usage_error_exits_2(self, capsys):
        assert run_main(capsys)[0] == 2
        assert run_main(capsys, "bogus")[0] == 2
        assert run_main(capsys, "run")[0] == 2

    def test_version(self, capsys):
        code, out, _ = run_main(capsys, "--version")
        assert code == 0
        assert out.startswith("whittemore ")

    def test_help(self, capsys):
        code, out, _ = run_main(capsys, "--help")
        assert code == 0
        assert "usage:" in out

    def test_emit_dot(self, capsys, tmp_path):
        path = tmp_path / "m.wt"
        path.write_text("(model {:x [] :y [:x]} #{:x :y})\n")
        code, out, err = run_main(capsys, "--emit", "dot", str(path))
        assert code == 0
        assert out.startswith("digraph")
        assert "x -> y [dir=both" in out

    def test_emit_latex(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, out, err = run_main(capsys, "--emit", "latex", "demo/front-door.wt")
        assert code == 0
        assert out.splitlines()[0] == (
            r"\sum_{z} \left[ \sum_{x} P(y \mid x, z) P(x) \right] P(z \mid x)"
        )

    def test_emit_type_mismatch(self, capsys, tmp_path):
        path = tmp_path / "m.wt"
        path.write_text("(model {:x []})\n")
        code, out, err = run_main(capsys, "--emit", "latex", str(path))
        assert code == 1

    def test_emit_bad_format(self, capsys):
        assert run_main(capsys, "--emit", "png", "x.wt")[0] == 2

    def test_emit_dot_needs_a_model(self, capsys, tmp_path):
        path = tmp_path / "q.wt"
        path.write_text("(q [:y])\n")
        assert run_main(capsys, "--emit", "dot", str(path)) == (
            1, "", f"{path}: --emit dot needs the last value to be a model\n"
        )

    def test_emit_from_an_empty_script_exits_1(self, capsys, tmp_path):
        path = tmp_path / "empty.wt"
        path.write_text("; nothing here\n")
        assert run_main(capsys, "--emit", "latex", str(path)) == (
            1, "", f"{path}: nothing to emit from an empty script\n"
        )

    def test_emit_takes_one_script(self, capsys):
        assert run_main(capsys, "--emit", "dot", "a.wt", "b.wt") == (
            2, "", "--emit requires exactly one script file\n"
        )

    def test_repl_takes_no_arguments(self, capsys):
        assert run_main(capsys, "repl", "extra") == (2, "", "repl takes no arguments\n")

    @pytest.mark.parametrize("demo", sorted(DEMO_OUTPUT))
    def test_script_mode_is_deterministic(self, capsys, monkeypatch, demo):
        monkeypatch.chdir(REPO_ROOT)
        for _ in range(2):
            assert run_main(capsys, "run", f"demo/{demo}.wt") == (0, DEMO_OUTPUT[demo], "")


class TestRepl:
    def feed(self, monkeypatch, capsys, lines, stream="out"):
        from whittemore import cli

        script = iter(lines)

        def fake_input(prompt=""):
            try:
                return next(script)
            except StopIteration:
                raise EOFError from None

        monkeypatch.setattr("builtins.input", fake_input)
        code = cli.repl()
        return code, getattr(capsys.readouterr(), stream)

    def test_transcript_matches_script_mode(self, monkeypatch, capsys, tmp_path):
        text = [
            "(define m (model {:x [] :y [:x]}))",
            "(identify m (q [:y] :do {:x 0}))",
            "(measure (categorical [{:x 0} {:x 0} {:x 1}]) {:x 0})",
        ]
        code, repl_out = self.feed(monkeypatch, capsys, text)
        assert code == 0
        script = tmp_path / "t.wt"
        script.write_text("\n".join(text) + "\n")
        assert main(["run", str(script)]) == 0
        script_out = capsys.readouterr().out
        # drop the banner and the newline echoed at EOF
        repl_lines = [line for line in repl_out.splitlines()[1:] if line]
        assert repl_lines == script_out.splitlines()

    def test_multi_line_input(self, monkeypatch, capsys):
        code, out = self.feed(
            monkeypatch, capsys, ["(model {:x []", ":y [:x]})", ":q"]
        )
        assert code == 0
        assert "(model {:x [], :y [:x]})" in out

    def test_doc_builtin(self, monkeypatch, capsys):
        code, out = self.feed(
            monkeypatch,
            capsys,
            ['(define fd "front door docs" (model {:x []}))', "doc fd"],
        )
        assert "front door docs" in out

    def test_error_has_its_position(self, monkeypatch, capsys):
        code, err = self.feed(monkeypatch, capsys, ["(define a 1)", "  (head a 1)"], "err")
        assert "1:3: head needs a vector of samples, got int" in err

    def test_error_recovers(self, monkeypatch, capsys):
        code, out = self.feed(monkeypatch, capsys, ["nope", "(define x 7)", "x"])
        assert code == 0
        assert [line for line in out.splitlines() if line][-1] == "7"
