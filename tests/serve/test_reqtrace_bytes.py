"""The bytes request tracing must not move: the access-log line, the
``repro tail`` table and ``repro tail --json`` for two fixed timelines,
pinned as literal strings.  The timelines are built through the public
stage API only, so any change to how stages are stored must still
serialize and rank them exactly like this."""

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.serve.reqtrace import RequestTimeline, RequestTracker


def pinned_timelines():
    ok = RequestTimeline(request_id="0badcafe-000001", client_id=7,
                         priority=1, degree=3, start_ns=1_000_000,
                         time_unix=1754550000.25)
    ok.add_stage("validate", 1_000_100, 40_000)
    ok.add_stage("admission", 1_000_000, 60_000)
    ok.add_stage("queue_wait", 1_060_000, 2_500_000)
    ok.add_stage("cache_lookup", 3_560_000, 30_000)
    ok.add_stage("budget_setup", 3_590_000, 10_000)
    ok.add_stage("solve", 3_600_000, 4_200_000, bit_cost=18_400)
    ok.add_stage("serialize", 7_800_000, 50_000)
    ok.add_stage("write", 7_850_000, 70_000)
    ok.close("ok", 200, end_ns=7_920_000)
    err = RequestTimeline(request_id="0badcafe-000002", client_id="e-1",
                          degree=70, start_ns=2_000_000,
                          time_unix=1754550001.5)
    err.add_stage("validate", 2_000_050, 900_000)
    err.close("error", 400, end_ns=2_950_000)
    return ok, err


OK_LINE = (
    '{"schema":"repro.reqtrace/1","request_id":"0badcafe-000001","id":7,'
    '"priority":1,"degree":3,"status":"ok","code":200,"cached":false,'
    '"time_unix":1754550000.25,"start_ns":1000000,"end_ns":7920000,'
    '"total_ns":6920000,"bit_cost":18400,"dominant_stage":"solve",'
    '"stages":[{"name":"validate","start_ns":1000100,"wall_ns":40000},'
    '{"name":"admission","start_ns":1000000,"wall_ns":60000},'
    '{"name":"queue_wait","start_ns":1060000,"wall_ns":2500000},'
    '{"name":"cache_lookup","start_ns":3560000,"wall_ns":30000},'
    '{"name":"budget_setup","start_ns":3590000,"wall_ns":10000},'
    '{"name":"solve","start_ns":3600000,"wall_ns":4200000,'
    '"bit_cost":18400},'
    '{"name":"serialize","start_ns":7800000,"wall_ns":50000},'
    '{"name":"write","start_ns":7850000,"wall_ns":70000}]}\n'
)

ERR_LINE = (
    '{"schema":"repro.reqtrace/1","request_id":"0badcafe-000002",'
    '"id":"e-1","priority":0,"degree":70,"status":"error","code":400,'
    '"cached":false,"time_unix":1754550001.5,"start_ns":2000000,'
    '"end_ns":2950000,"total_ns":950000,"bit_cost":0,'
    '"dominant_stage":"validate",'
    '"stages":[{"name":"validate","start_ns":2000050,"wall_ns":900000}]}\n'
)

TAIL_TABLE = """\
request_id       id   status  code  total_ms  queue_ms  solve_ms  dominant  degree  prio
---------------  ---  ------  ----  --------  --------  --------  --------  ------  ----
0badcafe-000002  e-1  error   400   0.95      0.00      0.00      validate  70      0
0badcafe-000001  7    ok      200   6.92      2.50      4.20      solve     3       1
"""


def write_log(tmp_path):
    path = str(tmp_path / "access.jsonl")
    tracker = RequestTracker(MetricsRegistry(), access_log=path)
    for tl in pinned_timelines():
        tracker.finalize(tl)
    tracker.close()
    return path


def test_access_log_lines(tmp_path):
    with open(write_log(tmp_path), encoding="utf-8") as fh:
        assert fh.read() == OK_LINE + ERR_LINE


def test_tail_table(tmp_path, capsys):
    path = write_log(tmp_path)
    assert main(["tail", path]) == 0
    assert capsys.readouterr().out == TAIL_TABLE + (
        f"\n2 requests, 1 failures ({path})\n")


def test_tail_json(tmp_path, capsys):
    assert main(["tail", write_log(tmp_path), "--json"]) == 0
    # Failures first: the error record, then the ok one.
    assert capsys.readouterr().out == ERR_LINE + OK_LINE
