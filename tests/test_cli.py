"""End-to-end command behavior: outputs, exit codes, files written."""

import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import conftest
import helpers
import tbcalc.lattice
import tbcalc.openbook
from conftest import record_calls, run_cli
from tbcalc import (
    InputDocument,
    ParseError,
    cli,
    load_document,
    monodromy_matrix,
    tb_heegaard,
    tb_open_book,
    write_document,
)
from tbcalc.cli import _exact_int_output as unlimited_int_digits

# an open book whose certificate entries run past 10000 digits
BIG_CERTIFICATE = pathlib.Path(__file__).resolve().parent / "data" / "big-certificate.json"


def write_obj(tmp_path, obj, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


KNOTLESS_OPENBOOK = {
    "mode": "openbook",
    "page": {"genus": 0, "boundary": 2},
    "twists": [{"sign": 1, "arcs": [-1]}],
    "twist_pairings": [[0]],
}

INFINITE_OPENBOOK = {
    "mode": "openbook",
    "page": {"genus": 1, "boundary": 1},
    "twists": [],
    "twist_pairings": [],
    "knot": {"arcs": [1, 0]},
}


class TestTb:
    def test_standard_unknot_human(self):
        code, out, err = run_cli("tb", str(conftest.fixture_path("standard-unknot")))
        assert code == 0
        assert out.splitlines() == [
            "verdict: nullhomologous",
            "order 1, tb = -1",
            "certificate E = [-1]",
        ]
        assert err == ""

    def test_rational_fraction_format(self):
        code, out, _ = run_cli("tb", str(conftest.fixture_path("rational-order-two")))
        assert code == 0
        assert "order 2, tb = -1/2" in out
        assert "rationally nullhomologous of order 2" in out

    def test_infinite_order_exit_code(self):
        code, out, _ = run_cli("tb", str(conftest.fixture_path("heegaard-obstructed")))
        assert code == 2
        assert "infinite order" in out

    def test_json_payload(self):
        code, out, _ = run_cli(
            "tb", "--json", str(conftest.fixture_path("rational-order-two"))
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "verdict": "rationally nullhomologous of order 2",
            "order": 2,
            "tb_numerator": -1,
            "tb_denominator": 2,
            "certificate": [1],
            "kernel_orthogonal": True,
        }

    @pytest.mark.parametrize(
        "name, factorizations", [("standard-unknot", 1), ("long-word", 1), ("infinite-order", 0)]
    )
    def test_one_factorization_for_a_finite_order(self, monkeypatch, tmp_path, name, factorizations):
        """tb factors C once for a knot of finite order, and not at all for
        one of infinite order, whose verdict a left-kernel witness proves."""
        if name == "infinite-order":
            path = write_obj(tmp_path, INFINITE_OPENBOOK)
        else:
            path = str(conftest.document_path(name))
        calls = record_calls(monkeypatch, tbcalc.lattice, "smith_normal_form")
        for mode in ([], ["--json"]):
            calls.clear()
            code, _, _ = run_cli("tb", *mode, path)
            assert (code, len(calls)) == (2 if name == "infinite-order" else 0, factorizations), mode

    def test_json_infinite(self):
        code, out, _ = run_cli(
            "tb", "--json", str(conftest.fixture_path("heegaard-obstructed"))
        )
        assert code == 2
        assert json.loads(out) == {"verdict": "infinite order"}

    def test_kernel_warning_on_stderr(self, tmp_path):
        path = write_obj(
            tmp_path,
            {"mode": "heegaard", "genus": 1, "C": [[0]], "A": [0], "I": [1], "dividing": 0},
        )
        code, out, err = run_cli("tb", path)
        assert code == 0
        assert "order 1, tb = 0" in out
        assert "not orthogonal to the kernel" in err

    def test_missing_knot_is_usage_error(self, tmp_path):
        path = write_obj(tmp_path, KNOTLESS_OPENBOOK)
        code, _, err = run_cli("tb", path)
        assert code == 1
        assert "no knot block" in err

    def test_missing_file(self, tmp_path):
        code, _, err = run_cli("tb", str(tmp_path / "absent.json"))
        assert code == 1
        assert "error" in err

    def test_invalid_document(self, tmp_path):
        path = write_obj(tmp_path, {"mode": "heegaard", "genus": 1, "C": [[1]], "dividing": 3})
        code, _, err = run_cli("tb", path)
        assert code == 1
        assert "required alongside" in err

    def test_stdin_dash(self):
        text = conftest.fixture_path("standard-unknot").read_text(encoding="utf-8")
        code, out, _ = run_cli("tb", "-", stdin=text)
        assert code == 0 and "tb = -1" in out

    def test_stdin_flag(self):
        text = conftest.fixture_path("overtwisted-unknot").read_text(encoding="utf-8")
        code, out, _ = run_cli("tb", "--stdin", stdin=text)
        assert code == 0 and "tb = 1" in out

    @pytest.mark.parametrize("command", ["tb", "homology"])
    def test_stdin_flag_with_a_path_is_a_usage_error(self, monkeypatch, command):
        # two inputs: neither is read, and the error names both
        stdin = io.StringIO('{"mode": "heegaard", "genus": 1, "C": [[2]]}')
        monkeypatch.setattr(sys, "stdin", stdin)
        path = str(conftest.fixture_path("standard-unknot"))
        code, out, err = run_cli(command, "--stdin", "-v", path)
        assert (code, out) == (1, "")
        assert err == f"tbcalc: error: two inputs given, --stdin and {path}; give one\n"
        assert stdin.tell() == 0

    def test_bad_json_on_stdin(self):
        code, _, err = run_cli("tb", "-", stdin="{not json")
        assert code == 1
        assert "line 1" in err

    def test_verbose_context(self):
        code, out, _ = run_cli("tb", "-v", str(conftest.fixture_path("standard-unknot")))
        assert code == 0
        assert out.startswith("standard-unknot: Core curve")

    def test_double_verbose_prints_matrix(self):
        code, out, _ = run_cli("tb", "-vv", str(conftest.fixture_path("standard-unknot")))
        assert code == 0
        assert "pairing matrix C = [[1]]" in out

    def test_unknown_flag_exits_one(self):
        assert run_cli("tb", "--bad-flag")[0] == 1


class TestParserReuse:
    """main parses every call with one parser built at import."""

    def test_calls_share_no_state(self, capsys, tmp_path, monkeypatch):
        unknot = str(conftest.fixture_path("standard-unknot"))
        monkeypatch.setattr(cli, "build_parser", None)  # main must not rebuild it
        first = run_cli("tb", unknot)
        assert run_cli("tb", "-vv", "--json", unknot)[0] == 0
        assert run_cli("stabilize", "--sign", "-1", "-o", str(tmp_path / "s.json"), unknot)[0] == 0
        code, *usage = run_cli("stabilize", "-o", str(tmp_path / "t.json"), unknot)
        assert code == 1
        assert run_cli("tb", unknot) == first
        assert run_cli("tb", "-v", unknot) == run_cli("tb", "-v", unknot)
        assert not (tmp_path / "t.json").exists()

        monkeypatch.undo()
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["stabilize", "-o", str(tmp_path / "t.json"), unknot])
        assert list(capsys.readouterr()) == usage
        assert usage[0] == ""
        assert "error: the following arguments are required: --sign" in usage[1]


OVERLONG_LITERAL = json.dumps(KNOTLESS_OPENBOOK).replace("[-1]", "[" + "7" * 5000 + "]").encode()


class TestHostileInput:
    """Text that json or the decoder refuses ends in a named ParseError."""

    @pytest.mark.parametrize(
        "data,cause",
        [
            pytest.param(
                OVERLONG_LITERAL,
                "integer literal too long",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-string limit",
                ),
            ),
            (b"\xff\xfe{}", "cannot decode the document"),
            (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
        ],
        ids=["5000-digit-literal", "utf16-bom", "100k-nested-arrays"],
    )
    def test_file_exits_one(self, tmp_path, data, cause):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        code, out, err = run_cli("tb", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("tbcalc: error: ")
        assert cause in err

    def test_undecodable_stdin_exits_one(self, monkeypatch):
        stream = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stream)
        code, _, err = run_cli("tb", "-")
        assert code == 1
        assert "cannot decode the document" in err

    def test_error_type(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ParseError):
            load_document(path)


@pytest.mark.parametrize("route", ["path", "stdin"])
def test_documents_are_utf8_whatever_the_locale(tmp_path, route):
    """Under the C locale, whose text encoding is ASCII, `tb -v` prints,
    `convert` writes and an error names a key in the bytes they do under
    UTF-8, on a description and a key that are not ASCII; and an output
    path and an unknown option that are not ASCII print as their bytes
    read as UTF-8, and the file is written under the name given."""
    obj = json.loads(conftest.fixture_path("standard-unknot").read_text(encoding="utf-8"))
    document = tmp_path / "doc.json"
    document.write_text(json.dumps({**obj, "description": "nœud"}, ensure_ascii=False), encoding="utf-8")
    unknown_key = tmp_path / "unknown-key.json"
    unknown_key.write_text('{"mode": "heegaard", "genus": 0, "C": [], "nœud": 1}', encoding="utf-8")
    runs = (
        (["tb", "-v"], document),
        (["convert", "-o", str(tmp_path / "out.json")], document),
        (["tb"], unknown_key),
        (["convert", "-o", str(tmp_path / "ñ.json")], document),
        (["convert", "--json", "-o", str(tmp_path / "ñ.json")], document),
        (["tb", "--bogus-ñ"], document),
    )
    outputs = []
    for locale in ({"LC_ALL": "C", "PYTHONUTF8": "0"}, {"PYTHONUTF8": "1"}):
        env = {**os.environ, "PYTHONPATH": str(conftest.SRC), "PYTHONCOERCECLOCALE": "0", **locale}
        env.pop("PYTHONIOENCODING", None)
        for argv, path in runs:
            source = {"path": [str(path)], "stdin": ["--stdin"]}[route]
            result = subprocess.run(
                [sys.executable, "-m", "tbcalc", *argv, *source],
                input=path.read_bytes(),
                capture_output=True,
                env=env,
            )
            outputs.append((result.returncode, result.stdout, result.stderr))
        outputs.append((tmp_path / "out.json").read_bytes())
        outputs.append((tmp_path / "ñ.json").read_bytes())
    assert outputs[:8] == outputs[8:]
    tb, convert, error, wrote, wrote_json, usage, written, written_there = outputs[:8]
    assert tb[0] == convert[0] == 0
    assert tb[1].startswith("standard-unknot: nœud\n".encode())
    assert b'"description": "n\\u0153ud"' in written
    assert error == (1, b"", "tbcalc: error: nœud: unknown key\n".encode())
    assert wrote == (0, f"wrote {tmp_path / 'ñ.json'}\n".encode(), b"")
    assert (wrote_json[0], json.loads(wrote_json[1])["output"]) == (0, str(tmp_path / "ñ.json"))
    assert usage[:2] == (1, b"")
    assert usage[2].endswith("tbcalc: error: unrecognized arguments: --bogus-ñ\n".encode())
    assert written_there == written


class TestHugeIntegers:
    """Results print exactly however long they are; the input limit stays."""

    def digit_limit(self):
        return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None

    def test_tb_prints_the_whole_certificate(self):
        limit = self.digit_limit()
        code, out, err = run_cli("tb", str(BIG_CERTIFICATE))
        assert (code, err) == (0, "")
        assert self.digit_limit() == limit
        verdict, value, certificate = out.splitlines()
        assert (verdict, value) == ("verdict: nullhomologous", "order 1, tb = -5843801350")
        with unlimited_int_digits():
            result = tb_open_book(*self.book_and_knot())
            assert certificate == f"certificate E = {list(result.certificate)}"

    def test_tb_json(self):
        limit = self.digit_limit()
        code, out, err = run_cli("tb", "--json", str(BIG_CERTIFICATE))
        assert (code, err) == (0, "")
        assert self.digit_limit() == limit
        with unlimited_int_digits():
            payload = json.loads(out)
            assert max(len(str(abs(e))) for e in payload["certificate"]) > 10_000
        book, knot = self.book_and_knot()
        assert payload["order"] == 1
        assert (payload["tb_numerator"], payload["tb_denominator"]) == (-5843801350, 1)
        certificate = tuple(payload["certificate"])
        assert monodromy_matrix(book) @ certificate == knot.arc_pairings
        assert payload["tb_numerator"] == -sum(e * a for e, a in zip(certificate, knot.arc_pairings))

    def test_stabilize_json(self, tmp_path):
        out_path = tmp_path / "stab.json"
        code, out, err = run_cli(
            "stabilize", "--json", "--sign", "+1", "-o", str(out_path), str(BIG_CERTIFICATE)
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["tb_before"] == {"numerator": -5843801350, "denominator": 1}
        assert payload["tb_after"] == {"numerator": -5843801351, "denominator": 1}
        assert payload["delta"] == {"numerator": -1, "denominator": 1}
        assert load_document(out_path).open_book.page.arc_count == 19

    def book_and_knot(self):
        document = load_document(BIG_CERTIFICATE)
        return document.open_book, document.knot


class TestHomology:
    def test_with_nullhomologous_knot(self):
        code, out, _ = run_cli("homology", str(conftest.fixture_path("heegaard-solvable")))
        assert code == 0
        assert out.splitlines() == [
            "H1(M) = Z",
            "H1(M \\ nu K) = Z^2",
            "complement lemma: holds",
        ]

    def test_knot_of_higher_order(self):
        code, out, _ = run_cli("homology", str(conftest.fixture_path("rational-order-two")))
        assert code == 0
        assert "H1(M) = Z/2" in out
        assert "not nullhomologous" in out
        assert "complement lemma" not in out

    def test_openbook_converts_automatically(self):
        code, out, _ = run_cli("homology", str(conftest.fixture_path("standard-unknot")))
        assert code == 0
        assert out.splitlines() == [
            "H1(M) = 0",
            "H1(M \\ nu K) = Z",
            "complement lemma: holds",
        ]

    def test_knotless_document(self, tmp_path):
        path = write_obj(tmp_path, KNOTLESS_OPENBOOK)
        code, out, _ = run_cli("homology", path)
        assert code == 0
        assert out.splitlines() == ["H1(M) = 0"]

    def test_json_payload(self):
        code, out, _ = run_cli(
            "homology", "--json", str(conftest.fixture_path("heegaard-solvable"))
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["h1_manifold"] == {"torsion": [], "free_rank": 1, "text": "Z"}
        assert payload["h1_complement"] == {"torsion": [], "free_rank": 2, "text": "Z^2"}
        assert payload["complement_lemma"] is True

    def test_json_not_applicable(self):
        code, out, _ = run_cli(
            "homology", "--json", str(conftest.fixture_path("heegaard-obstructed"))
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["h1_complement"] is None
        assert payload["complement_lemma"] is None

    def test_verbose_context_escapes_a_lone_surrogate(self, tmp_path):
        # a JSON escape can name a lone surrogate, which UTF-8 cannot encode
        path = write_obj(tmp_path, {"mode": "heegaard", "description": "\ud800", "genus": 1, "C": [[1]]})
        assert run_cli("homology", "-v", path) == (0, "(unnamed): \\ud800\nH1(M) = 0\n", "")


# the open books with a knot, among the fixtures and the test documents,
# but for nonsingular-44, whose tb runs the Smith route at n = 44 and takes
# minutes; test_robustness.py runs its homology on its own
STABILIZABLE = [
    name
    for name in conftest.FIXTURE_NAMES + sorted(path.stem for path in conftest.DATA.glob("*.json"))
    if name != "nonsingular-44"
    and load_document(conftest.document_path(name)).knot is not None
]


def drawn_document(seed, realizable, bounding):
    """An open book, realizable or not, with a knot that bounds or any knot."""
    rng = random.Random(seed)
    draw_book = helpers.random_realizable_open_book if realizable else helpers.random_open_book
    book = draw_book(rng)
    knot = (helpers.random_bounding_knot if bounding else helpers.random_knot)(rng, book)
    return InputDocument(open_book=book, knot=knot)


class TestStabilize:
    def test_writes_and_reports(self, tmp_path):
        out_path = tmp_path / "stab.json"
        code, out, _ = run_cli(
            "stabilize",
            "--sign",
            "+1",
            "-o",
            str(out_path),
            str(conftest.fixture_path("standard-unknot")),
        )
        assert code == 0
        assert f"wrote {out_path}" in out
        assert "tb before = -1, tb after = -2, delta = -1" in out
        written = load_document(out_path)
        result = tb_open_book(written.open_book, written.knot)
        assert result.tb == -2

    def test_negative_sign(self, tmp_path):
        out_path = tmp_path / "stab.json"
        code, out, _ = run_cli(
            "stabilize",
            "--sign",
            "-1",
            "-o",
            str(out_path),
            str(conftest.fixture_path("standard-unknot")),
        )
        assert code == 0
        assert "tb before = -1, tb after = 0, delta = 1" in out

    def test_json_payload(self, tmp_path):
        out_path = tmp_path / "stab.json"
        code, out, _ = run_cli(
            "stabilize",
            "--sign",
            "+1",
            "-o",
            str(out_path),
            "--json",
            str(conftest.fixture_path("overtwisted-unknot")),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sign"] == 1
        assert payload["tb_before"] == {"numerator": 1, "denominator": 1}
        assert payload["tb_after"] == {"numerator": 0, "denominator": 1}
        assert payload["delta"] == {"numerator": -1, "denominator": 1}

    def test_infinite_order_still_writes(self, tmp_path):
        path = write_obj(tmp_path, INFINITE_OPENBOOK)
        out_path = tmp_path / "stab.json"
        code, out, _ = run_cli("stabilize", "--sign", "+1", "-o", str(out_path), path)
        assert code == 2
        assert "tb undefined" in out
        assert out_path.exists()

    def test_a_failed_write_comes_after_the_kernel_warning(self, tmp_path):
        """The file is written once the command has computed what it
        prints, so the warning of a knot that meets ker C comes first."""
        out_path = tmp_path / "missing" / "stab.json"
        code, out, err = run_cli(
            "stabilize", "--sign", "+1", "-o", out_path, conftest.DATA / "stabilize-not-orthogonal.json"
        )
        assert (code, out) == (1, "")
        warning, error = err.splitlines()
        assert warning.startswith("warning: the knot pairing vector is not orthogonal")
        assert error.startswith("tbcalc: error: [Errno 2] No such file or directory")

    def test_heegaard_input_rejected(self, tmp_path):
        out_path = tmp_path / "stab.json"
        code, _, err = run_cli(
            "stabilize",
            "--sign",
            "+1",
            "-o",
            str(out_path),
            str(conftest.fixture_path("rational-order-two")),
        )
        assert code == 1
        assert "requires an openbook document" in err
        assert not out_path.exists()

    def test_knotless_rejected(self, tmp_path):
        path = write_obj(tmp_path, KNOTLESS_OPENBOOK)
        code, _, err = run_cli("stabilize", "--sign", "+1", "-o", str(path), path)
        assert code == 1
        assert "no knot block" in err

    @given(
        st.builds(drawn_document, st.integers(0, 2**32 - 1), st.booleans(), st.booleans()),
        st.sampled_from(("+1", "-1")),
    )
    @example(drawn_document(10, False, False), "+1")
    @example(drawn_document(13, True, False), "-1")
    @example(drawn_document(3, True, True), "-1")
    # the 60-twist word, and a knot that meets ker C, whose tb after is
    # read off the Smith pivots of diag(C, sign)
    @example(load_document(conftest.document_path("long-word")), "+1")
    @example(load_document(conftest.document_path("long-word")), "-1")
    @example(load_document(conftest.document_path("stabilize-not-orthogonal")), "+1")
    @example(load_document(conftest.document_path("stabilize-not-orthogonal")), "-1")
    @settings(deadline=None, max_examples=150)
    def test_tb_after_is_the_tb_of_the_written_book(self, document, sign):
        """stabilize reads tb after off diag(C, sign), without sweeping the
        stabilized word; the written book, read back and swept afresh,
        has that tb, and a knot of infinite order stays undefined."""
        with tempfile.TemporaryDirectory() as folder:
            source, target = pathlib.Path(folder, "in.json"), pathlib.Path(folder, "out.json")
            write_document(document, source)
            code, out, _ = run_cli("stabilize", "--json", "--sign", sign, "-o", target, source)
            written = load_document(target)
        result = tb_open_book(written.open_book, written.knot)
        payload = json.loads(out)
        if result is None:
            assert code == 2
            assert payload["tb_after"] is None
        else:
            assert code == 0
            assert payload["tb_after"] == {
                "numerator": result.tb.numerator,
                "denominator": result.tb.denominator,
            }

    @pytest.mark.parametrize("name", STABILIZABLE)
    def test_one_sweep_per_op(self, monkeypatch, tmp_path, name):
        """Every command sweeps the word once, plain, with --json and with
        -vv, whose pairing matrix is read off the same view."""
        calls = record_calls(monkeypatch, tbcalc.openbook, "monodromy_matrix")
        monkeypatch.setattr(tbcalc.cli, "monodromy_matrix", tbcalc.openbook.monodromy_matrix, raising=False)
        out = ["-o", str(tmp_path / "out.json")]
        commands = [["tb"], ["homology"], ["stabilize", "--sign", "+1", *out]]
        commands += [["stabilize", "--sign", "-1", *out], ["convert", *out]]
        for command in commands:
            for mode in ([], ["--json"], ["-vv"]):
                calls.clear()
                code, _, _ = run_cli(*command, *mode, str(conftest.document_path(name)))
                assert code in (0, 2)
                assert len(calls) == 1, command + mode

    @pytest.mark.parametrize(
        "name, factorizations",
        [
            ("standard-unknot", 1),
            ("long-word", 1),
            ("infinite-order", 0),
            ("stabilize-not-orthogonal", 2),
        ],
    )
    def test_one_factorization_unless_the_knot_meets_the_kernel(
        self, monkeypatch, tmp_path, name, factorizations
    ):
        """stabilize factors C once and reads tb after off tb before when
        the knot is orthogonal to ker C (standard-unknot, and long-word
        of order 81); only a knot that meets ker C has diag(C, sign)
        factored as well.  A knot of infinite order is proved so by a
        left-kernel witness, with no factorization."""
        if name == "infinite-order":
            path = write_obj(tmp_path, INFINITE_OPENBOOK)
        else:
            path = str(conftest.document_path(name))
        calls = record_calls(monkeypatch, tbcalc.lattice, "smith_normal_form")
        out_path = str(tmp_path / "stab.json")
        for argv in (
            ["stabilize", "--sign", "+1", "-o", out_path, path],
            ["stabilize", "--json", "--sign", "-1", "-o", out_path, path],
        ):
            calls.clear()
            run_cli(*argv)
            assert len(calls) == factorizations, argv


class TestConvert:
    @pytest.mark.parametrize(
        "name", ["standard-unknot", "overtwisted-unknot", "solution-family", "disk-page"]
    )
    def test_preserves_tb(self, tmp_path, name):
        out_path = tmp_path / "converted.json"
        code, out, _ = run_cli(
            "convert", "-o", str(out_path), str(conftest.fixture_path(name))
        )
        assert code == 0
        assert f"wrote {out_path}" in out
        source = load_document(conftest.fixture_path(name))
        converted = load_document(out_path)
        assert converted.mode == "heegaard"
        page_result = tb_open_book(source.open_book, source.knot)
        surface_result = tb_heegaard(converted.heegaard)
        assert surface_result.order == page_result.order
        assert surface_result.tb == page_result.tb

    @pytest.mark.parametrize(
        "name", ["standard-unknot", "solution-family", "long-word", "stabilize-not-orthogonal"]
    )
    def test_preserves_homology(self, tmp_path, name):
        """homology reads an open book's view (C, A, -A) and the converted
        document's (-C, A, A); both print the same groups."""
        source, converted = conftest.document_path(name), tmp_path / "converted.json"
        assert run_cli("convert", "-o", converted, source)[0] == 0
        assert run_cli("homology", "--json", converted) == run_cli("homology", "--json", source)

    def test_heegaard_input_rejected(self, tmp_path):
        code, _, err = run_cli(
            "convert",
            "-o",
            str(tmp_path / "x.json"),
            str(conftest.fixture_path("heegaard-solvable")),
        )
        assert code == 1
        assert "requires an openbook document" in err

    def test_context_comes_before_the_refusal(self, tmp_path):
        # -v prints the document context first, whatever the command does next
        path = str(conftest.fixture_path("heegaard-solvable"))
        code, out, err = run_cli("convert", "-vv", "-o", str(tmp_path / "x.json"), path)
        assert code == 1
        assert out.splitlines()[0].startswith("heegaard-solvable: ")
        assert out.splitlines()[1].startswith("pairing matrix C = ")
        assert err == "tbcalc: error: convert requires an openbook document\n"

    def test_json_payload(self, tmp_path):
        out_path = tmp_path / "converted.json"
        code, out, _ = run_cli(
            "convert",
            "-o",
            str(out_path),
            "--json",
            str(conftest.fixture_path("standard-unknot")),
        )
        assert code == 0
        assert json.loads(out) == {"output": str(out_path)}

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-to-string limit"
    )
    def test_writes_only_what_the_parser_reads(self, tmp_path):
        """An entry of C longer than the parser's digit limit is refused by
        its path before any file is written; one at the limit is written
        and reads back."""
        big = 10**400  # makes C[0][0] of the converted document 801 digits long
        path = write_obj(
            tmp_path,
            {
                "mode": "openbook",
                "page": {"genus": 1, "boundary": 1},
                "twists": [{"sign": 1, "arcs": arcs} for arcs in ([1, 0], [0, 1], [1, 0])],
                "twist_pairings": [[0, -big, 0], [big, 0, -big], [0, big, 0]],
                "knot": {"arcs": [1, 0]},
            },
        )
        out_path = tmp_path / "converted.json"
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(800)
            assert run_cli("convert", "-o", out_path, path) == (
                1,
                "",
                "tbcalc: error: C[0][0]: more than 800 digits; the written document could not be read back\n",
            )
            assert not out_path.exists()
            sys.set_int_max_str_digits(801)
            assert run_cli("convert", "-o", out_path, path)[0] == 0
            assert len(str(abs(load_document(out_path).heegaard.relations[0, 0]))) == 801
        finally:
            sys.set_int_max_str_digits(limit)


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "tbcalc", "tb", str(conftest.fixture_path("standard-unknot"))],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "tb = -1" in result.stdout


@pytest.mark.parametrize("document", ["long-word", "big-certificate"])
def test_closed_stdout(document):
    """A reader that has gone, as in `tbcalc tb -vv ... | head -1`: exit 141,
    what a shell reports for a process that SIGPIPE ends, and nothing on
    stderr.  stdout is buffered, as by default on a pipe, so the 327 bytes
    of long-word meet the closed pipe at the flush, and the 173 KB of
    big-certificate in the print."""
    env = {**os.environ, "PYTHONPATH": str(conftest.SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "tbcalc", "tb", "-vv", str(conftest.document_path(document))],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (141, b"")
