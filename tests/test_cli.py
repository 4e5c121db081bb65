import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcmon
from dcmon.cli import main
from dcmon.corpus import POLICY_DIR, build_policy_source
from dcmon.sim import write_trace
from dcmon.tracegen import make_bench_trace

from conftest import sends_every


@pytest.fixture()
def msg_policy_file(tmp_path) -> Path:
    p = tmp_path / "MsgCntLmt.dcp"
    p.write_text(build_policy_source("MsgCntLmt"), encoding="utf-8")
    return p


@pytest.fixture()
def small_trace_file(tmp_path) -> Path:
    p = tmp_path / "trace.jsonl"
    write_trace(p, sends_every(1000, 501))
    return p


def test_compile_ok(capsys, msg_policy_file):
    assert main(["compile", str(msg_policy_file)]) == 0
    assert "ok" in capsys.readouterr().out


def test_compile_shipped_corpus_files():
    for dcp in sorted(POLICY_DIR.glob("*.dcp")):
        assert main(["compile", str(dcp)]) == 0, dcp


def test_compile_validation_error_exit_1(capsys, tmp_path):
    p = tmp_path / "bad.dcp"
    p.write_text(
        "Events { } Conditions { GlobalSide { c = { global.ghost >= 1 } } } Actions { } Rules { }",
        encoding="utf-8",
    )
    assert main(["compile", str(p)]) == 1
    err = capsys.readouterr().err
    assert "UnresolvedName" in err
    # one LINE:COL: code: message diagnostic per line
    line = err.strip().splitlines()[0]
    pos, code, _ = line.split(": ", 2)
    assert all(part.isdigit() for part in pos.split(":"))
    assert code == "UnresolvedName"


def test_compile_parse_error_exit_1(capsys, tmp_path):
    p = tmp_path / "bad.dcp"
    p.write_text("Events {", encoding="utf-8")
    assert main(["compile", str(p)]) == 1
    assert "ParseError" in capsys.readouterr().err


CAMERA_SRC = """
Events { e() = { Camera *.takePicture(...) } }
Conditions { c = { true } }
Actions { a = { block(); } }
Rules { e() | c -> a; }
"""
# the catalog's sendTextMessage takes (string, string) and returns a bool
WRONG_PARAMS_SRC = CAMERA_SRC.replace("Camera *.takePicture(...)", "SmsManager *.sendTextMessage(int to, string body)")
WRONG_RETURN_SRC = CAMERA_SRC.replace(
    "e() = { Camera *.takePicture(...) }", "e(int sent) = { after SmsManager *.sendTextMessage(...) } uponReturning(sent)"
).replace("block();", "")


@pytest.mark.parametrize(
    "src, message",
    [
        (CAMERA_SRC, "event 'e' intercepts unknown API Camera.takePicture"),
        (
            WRONG_PARAMS_SRC,
            "event 'e' declares parameter types (int, string) but SmsManager.sendTextMessage takes (string, string)",
        ),
        (WRONG_RETURN_SRC, "event 'e' binds the return of SmsManager.sendTextMessage as int, which returns bool"),
    ],
    ids=["unknown-api", "parameter-types", "return-binding"],
)
@pytest.mark.parametrize("command", ["compile", "run"])
def test_policy_the_catalog_does_not_match_exit_1(tmp_path, capsys, command, src, message):
    # `run` refuses the policy before it reads the trace, which is missing
    policy = tmp_path / "p.dcp"
    policy.write_text(src, encoding="utf-8")
    out = tmp_path / "o"
    argv = {
        "compile": ["compile", str(policy)],
        "run": ["run", str(policy), str(tmp_path / "missing.jsonl"), "--out", str(out)],
    }[command]
    assert main(argv) == 1
    # the one diagnostic format of a policy that does not compile, at event e
    assert capsys.readouterr() == ("", f"2:10: CatalogMismatch: {message}\n")
    assert not out.exists()


BRIGHTNESS_SRC = CAMERA_SRC.replace("Camera *.takePicture(...)", "SmsManager *.sendTextMessage(...)").replace(
    "block();", 'set_attr("brightnes", 3);'
)


@pytest.mark.parametrize("command", ["compile", "run"])
def test_set_attr_of_an_unknown_attribute_exit_1(tmp_path, capsys, command):
    # the device has no attribute "brightnes", so no run writes it
    policy = tmp_path / "p.dcp"
    policy.write_text(BRIGHTNESS_SRC, encoding="utf-8")
    trace = tmp_path / "trace.jsonl"
    write_trace(trace, sends_every(1000, 1))
    out = tmp_path / "o"
    argv = {
        "compile": ["compile", str(policy)],
        "run": ["run", str(policy), str(trace), "--out", str(out)],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "4:17: UnresolvedName: unknown device attribute 'brightnes'\n")
    assert not out.exists()


def test_compile_missing_file_exit_2(capsys):
    assert main(["compile", "/nonexistent/policy.dcp"]) == 2


def test_run_writes_outputs(tmp_path, capsys, msg_policy_file, small_trace_file):
    out = tmp_path / "out"
    code = main(["run", str(msg_policy_file), str(small_trace_file), "--out", str(out)])
    assert code == 0
    verdicts = (out / "verdicts.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(verdicts) == 501
    assert sum(1 for line in verdicts if json.loads(line)["decision"] == "Blocked") == 1
    assert (out / "snapshot.json").exists()
    assert (out / "channel.jsonl").exists()


# `reset` is in no rule; it gives local.n its kind, so `inverse` divides by zero
DIVIDE_BY_ZERO_SRC = """
Events { ApplicationSide { sendB() = { SmsManager *.sendTextMessage(...) } } }
Conditions { ApplicationSide { inverse = { 10 / local.n > 1 } } }
Actions { ApplicationSide { deny = { block(); } reset = { local.n := 0; } } }
Rules { sendB() | inverse -> deny; }
"""


def test_run_writes_one_fault_line_per_fault(tmp_path, msg_policy_file):
    policy = tmp_path / "broken.dcp"
    policy.write_text(DIVIDE_BY_ZERO_SRC, encoding="utf-8")
    trace = tmp_path / "trace.jsonl"
    write_trace(trace, sends_every(1000, 3, apps=["A", "B"]))
    out = tmp_path / "out"
    assert main(["run", str(policy), str(trace), "--out", str(out)]) == 0
    lines = (out / "faults.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines == [
        '{"app":"A","event":0,"fault":"EvalError:DivisionByZero","t_ms":0}',
        '{"app":"B","event":1,"fault":"EvalError:DivisionByZero","t_ms":1000}',
        '{"app":"A","event":2,"fault":"EvalError:DivisionByZero","t_ms":2000}',
    ]
    # a run without faults writes an empty file
    assert main(["run", str(msg_policy_file), str(trace), "--out", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "faults.jsonl").read_text(encoding="utf-8") == ""


def test_run_exit_zero_with_blocked_events(tmp_path, msg_policy_file, small_trace_file):
    assert main(["run", str(msg_policy_file), str(small_trace_file), "--out", str(tmp_path / "o")]) == 0


def test_run_empty_trace(tmp_path, capsys, msg_policy_file):
    trace = tmp_path / "empty.jsonl"
    trace.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(msg_policy_file), str(trace), "--out", str(out)]) == 0
    assert (out / "verdicts.jsonl").read_text(encoding="utf-8") == ""


_SEND_LINE = '{"t_ms": 5, "app": "A", "call": "SmsManager.sendTextMessage", "args": ["21234567", "hi"]}'


@pytest.mark.parametrize(
    "line, message",
    [
        (_SEND_LINE.replace('"hi"', "2.5"), "line 2: argument 1 of 'SmsManager.sendTextMessage' must be string, got 2.5"),
        ('{"t_ms": 5, "app": "A", "call": "Camera.takePicture", "args": []}', "line 2: unknown API 'Camera.takePicture'"),
        (_SEND_LINE.replace(', "hi"', ""), "line 2: 'SmsManager.sendTextMessage' takes 2 arguments, got 1"),
        (_SEND_LINE.replace("5", "4", 1), "line 2: timestamps must be nondecreasing"),
    ],
    ids=["float-arg", "unknown-api", "wrong-arity", "time-out-of-order"],
)
@pytest.mark.parametrize("command", ["run", "bench"])
def test_bad_trace_exit_3_with_no_output(tmp_path, capsys, msg_policy_file, command, line, message):
    # the first line exercises the policy, so that bench reaches the defect
    trace = tmp_path / "bad.jsonl"
    trace.write_text(_SEND_LINE + "\n" + line + "\n", encoding="utf-8")
    out = tmp_path / "o"
    argv = {
        "run": ["run", str(msg_policy_file), str(trace), "--out", str(out)],
        "bench": ["bench", "--policies", "MsgCntLmt", "--trace", str(trace), "--out", str(out)],
    }[command]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: bad trace: {message}\n"
    assert not out.exists()


def test_run_malformed_trace_exit_3(tmp_path, msg_policy_file):
    trace = tmp_path / "bad.jsonl"
    trace.write_text("not json\n", encoding="utf-8")
    assert main(["run", str(msg_policy_file), str(trace), "--out", str(tmp_path / "o")]) == 3


def test_run_trace_with_lone_surrogate_exit_3(tmp_path, capsys, msg_policy_file):
    trace = tmp_path / "bad.jsonl"
    # ASCII on disk; the escape decodes to a string with no UTF-8 encoding
    trace.write_text(
        '{"t_ms": 0, "app": "A", "call": "SmsManager.sendTextMessage", "args": ["\\ud800", "hi"]}\n', encoding="utf-8"
    )
    assert main(["run", str(msg_policy_file), str(trace), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("error: bad trace: line 1: ")


def test_run_too_deeply_nested_trace_exit_3(tmp_path, capsys, msg_policy_file):
    trace = tmp_path / "deep.jsonl"
    args = "[" * 100_000 + "]" * 100_000
    trace.write_text('{"t_ms": 0, "app": "A", "call": "SmsManager.sendTextMessage", "args": [%s]}\n' % args,
                     encoding="utf-8")
    assert main(["run", str(msg_policy_file), str(trace), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: bad trace: line 1: invalid JSON: nested too deeply\n"


def test_run_missing_trace_exit_2(tmp_path, msg_policy_file):
    assert main(["run", str(msg_policy_file), "/nonexistent.jsonl", "--out", str(tmp_path / "o")]) == 2


def test_run_deterministic_outputs(tmp_path, msg_policy_file, small_trace_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", str(msg_policy_file), str(small_trace_file), "--out", str(out_a)])
    main(["run", str(msg_policy_file), str(small_trace_file), "--out", str(out_b)])
    for name in ("verdicts.jsonl", "snapshot.json", "channel.jsonl"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()



def test_run_measure_latency_changes_only_latencies(tmp_path, msg_policy_file, small_trace_file):
    plain, timed = tmp_path / "plain", tmp_path / "timed"
    assert main(["run", str(msg_policy_file), str(small_trace_file), "--out", str(plain)]) == 0
    argv = ["run", str(msg_policy_file), str(small_trace_file), "--out", str(timed), "--measure-latency"]
    assert main(argv) == 0
    for name in ("snapshot.json", "channel.jsonl", "faults.jsonl"):
        assert (timed / name).read_bytes() == (plain / name).read_bytes(), name
    plain_lines = (plain / "verdicts.jsonl").read_text(encoding="utf-8").splitlines()
    timed_lines = (timed / "verdicts.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(timed_lines) == len(plain_lines) == 501
    for plain_line, timed_line in zip(plain_lines, timed_lines):
        want, got = json.loads(plain_line), json.loads(timed_line)
        latency = got.pop("latency_ns")
        assert type(latency) is int and latency >= 0
        assert want.pop("latency_ns") == 0
        assert got == want

def test_bench_and_report(tmp_path, capsys):
    trace = tmp_path / "bench.jsonl"
    write_trace(trace, make_bench_trace(per_kind=8))
    report = tmp_path / "report.json"
    code = main(
        ["bench", "--policies", "WiFiLmt,PhoneExtBlk", "--trace", str(trace), "--reps", "30", "--out", str(report)]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "Overhead" in table and "WiFiLmt" in table
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert {r["policy"] for r in doc["rows"]} == {"WiFiLmt", "PhoneExtBlk"}
    for row in doc["rows"]:
        recomputed = (row["monitored_ms"] - row["unmonitored_ms"]) / row["unmonitored_ms"] * 100.0
        assert abs(recomputed - row["overhead_pct"]) < 1e-9
    assert main(["report", str(report)]) == 0
    assert "WiFiLmt" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["[]", '{"rows": [{}]}'], ids=["list", "empty_row"])
def test_report_of_another_json_shape_exit_2(tmp_path, capsys, text):
    report = tmp_path / "other.json"
    report.write_text(text, encoding="utf-8")
    assert main(["report", str(report)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {report} is not a bench report: ")


def report_in_subprocess(tmp_path, policy: str):
    """`dcmon report` in UTF-8 mode on a one-row report naming `policy`,
    with stdout a file: returns the process, the report's path and the
    bytes of stdout."""
    report = tmp_path / "report.json"
    row = {"policy": policy, "locality": "LocalOnly", "unmonitored_ms": 1.0, "monitored_ms": 2.0, "overhead_pct": 100.0}
    doc = {"rows": [row], "repetitions": 30, "trace": {"label": "t", "events": 1}, "memory": {}}
    # ASCII on disk: a surrogate is written as its JSON escape
    report.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "stdout.txt"
    src = str(Path(dcmon.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(PYTHONUTF8="1", PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with out.open("wb") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "dcmon", "report", str(report)], stdout=fh, stderr=subprocess.PIPE, env=env, text=True
        )
    return proc, report, out.read_bytes()


def test_report_with_lone_surrogate_exit_2(tmp_path):
    proc, report, out = report_in_subprocess(tmp_path, "\ud800")
    assert proc.returncode == 2
    assert out == b""
    assert proc.stderr.startswith(f"error: cannot print {report}: ") and proc.stderr.count("\n") == 1


def test_report_prints_an_escaped_file_name_byte(tmp_path):
    # what `bench` stores for a trace file name holding the byte 0xff
    proc, _, out = report_in_subprocess(tmp_path, "tr\udcff")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert b"tr\xff" in out


def test_bench_with_an_unprintable_trace_name_exit_2(tmp_path):
    # a trace file name holding the byte 0xff reaches argparse as "\udcff",
    # which a strict UTF-8 stdout cannot print in the table
    trace = tmp_path / "tr\udcff.jsonl"
    write_trace(trace, sends_every(1000, 3))
    report = tmp_path / "rep.json"
    out = tmp_path / "stdout.txt"
    src = str(Path(dcmon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["bench", "--policies", "MsgCntLmtHr", "--trace", str(trace), "--reps", "30", "--out", str(report)]
    with out.open("wb") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "dcmon", *argv], stdout=fh, stderr=subprocess.PIPE, env=env, text=True
        )
    assert proc.returncode == 2
    assert out.read_bytes() == b""
    assert proc.stderr.startswith("error: cannot print ") and proc.stderr.count("\n") == 1
    assert json.loads(report.read_text(encoding="utf-8"))["rows"][0]["policy"] == "MsgCntLmtHr"


def test_bench_unknown_policy(tmp_path):
    trace = tmp_path / "bench.jsonl"
    write_trace(trace, make_bench_trace(per_kind=2))
    assert main(["bench", "--policies", "NoSuch", "--trace", str(trace), "--out", str(tmp_path / "r.json")]) == 2


@pytest.mark.parametrize(
    "bad_args,message",
    [
        (["--reps", "5"], "error: --reps must be at least 30\n"),
        (["--policies", ""], "error: --policies names no policy\n"),
        (["--policies", " , "], "error: --policies names no policy\n"),
    ],
    ids=["too_few_reps", "no_policy", "only_commas"],
)
def test_bench_bad_arguments_exit_2(capsys, small_trace_file, tmp_path, bad_args, message):
    report = tmp_path / "r.json"
    argv = ["bench", "--policies", "MsgCntLmt", "--trace", str(small_trace_file), "--out", str(report)] + bad_args
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", message)
    assert not report.exists()


def test_bench_trace_must_exercise_policy(tmp_path):
    trace = tmp_path / "wifi_only.jsonl"
    write_trace(trace, [])
    trace.write_text('{"t_ms": 0, "app": "A", "call": "WifiManager.setWifiEnabled", "args": [true]}\n', encoding="utf-8")
    assert main(["bench", "--policies", "MsgCntLmt", "--trace", str(trace), "--out", str(tmp_path / "r.json")]) == 3


def test_bench_sub_second_idle_threshold_exit_2(tmp_path, capsys, small_trace_file):
    config = tmp_path / "cfg.json"
    config.write_text('{"idle_threshold_ms": 1500}', encoding="utf-8")
    argv = ["bench", "--policies", "OneHrPerSittingOnly", "--trace", str(small_trace_file), "--config", str(config)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: bad config {config}: ")


@pytest.mark.parametrize("bad_input", ["run_trace", "bench_trace", "bench_config", "report"])
def test_undecodable_input_exit_2(tmp_path, capsys, msg_policy_file, small_trace_file, bad_input):
    bad = tmp_path / "utf16.bin"
    bad.write_bytes(b"\xff\xfe{}\n")
    argv = {
        "run_trace": ["run", str(msg_policy_file), str(bad), "--out", str(tmp_path / "o")],
        "bench_trace": ["bench", "--policies", "MsgCntLmt", "--trace", str(bad)],
        "bench_config": ["bench", "--policies", "MsgCntLmt", "--trace", str(small_trace_file), "--config", str(bad)],
        "report": ["report", str(bad)],
    }[bad_input]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
