"""Per-policy behavior of the shipped corpus, checked against oracles and
pinned scenario values."""

import dataclasses

import pytest

from dcmon.config import DEFAULT_CONFIG, config_from_dict
from dcmon.corpus import (
    CORPUS_IDS,
    UnknownPolicyId,
    build_policy_source,
    compile_corpus_policy,
    list_corpus,
    oracle_verdicts,
    write_policy_files,
)
from dcmon.lang.values import MS_PER_DAY, MS_PER_HOUR, MS_PER_MINUTE, MS_PER_SECOND, VType
from dcmon.sim import run

from conftest import dial, end_call, launch, open_file, send, sends_every, url, wifi


def engine_decisions(pid, trace, config=DEFAULT_CONFIG):
    cp = compile_corpus_policy(pid, config)
    return run(trace, cp, config).decisions()


def both_agree(pid, trace, config=DEFAULT_CONFIG):
    got = engine_decisions(pid, trace, config)
    want = oracle_verdicts(pid, trace, config)
    assert got == want
    return got


# corpus metadata

def test_corpus_has_ten_entries():
    entries = list_corpus()
    assert len(entries) == 10
    assert [e.id for e in entries] == list(CORPUS_IDS)


def test_scenario_tags():
    by_id = {e.id: e for e in list_corpus()}
    assert by_id["MsgCntLmt"].scenario_tags == ("PC",)
    assert by_id["URLBlkReq"].scenario_tags == ("PC", "DC")
    assert by_id["PhoneExtBlk"].scenario_tags == ("DC",)


def test_categories():
    by_id = {e.id: e for e in list_corpus()}
    assert by_id["WiFiLmt"].category == "Prohibition"
    assert by_id["OneHrPerSittingOnly"].category == "Time limitation"
    assert by_id["MsgCntLmtHr"].category == "Time and count limitation"


def test_unknown_policy_id():
    with pytest.raises(UnknownPolicyId):
        oracle_verdicts("NoSuchPolicy", [], DEFAULT_CONFIG)
    with pytest.raises(UnknownPolicyId):
        build_policy_source("NoSuchPolicy")


def test_every_policy_source_compiles():
    for pid in CORPUS_IDS:
        cp = compile_corpus_policy(pid)
        assert cp.rules, pid


def test_shipped_policy_files_match_default_config():
    # regenerate with scripts/regen_corpus.py after changing generators
    from dcmon.corpus import POLICY_DIR

    for pid in CORPUS_IDS:
        shipped = (POLICY_DIR / f"{pid}.dcp").read_text(encoding="utf-8")
        assert shipped == build_policy_source(pid, DEFAULT_CONFIG), pid


def test_manifest_lists_all_policies():
    import json

    from dcmon.corpus import POLICY_DIR

    doc = json.loads((POLICY_DIR / "manifest.json").read_text(encoding="utf-8"))
    assert [p["id"] for p in doc["policies"]] == list(CORPUS_IDS)


def test_corpus_sources_roundtrip_through_printer():
    from dcmon.dsl import parse_policy, pretty_print

    for pid in CORPUS_IDS:
        spec = parse_policy(build_policy_source(pid))
        assert parse_policy(pretty_print(spec)) == spec, pid


def test_written_policy_files_parse_back_with_a_carriage_return_in_config(tmp_path):
    # reading a file turns a raw carriage return into a line break, which
    # ends a string literal: each config string is written escaped
    from dcmon.dsl import parse_policy

    cfg = config_from_dict({
        "home_country_code": "+3\r56",
        "url_blocklist": ["cas\rino"],
        "protected_paths": ["/work\r/x"],
        "authorized_apps": {"/work\r/x": ["Stock\rControl"]},
    })
    write_policy_files(tmp_path, cfg)
    for pid in CORPUS_IDS:
        text = (tmp_path / f"{pid}.dcp").read_text(encoding="utf-8")
        assert parse_policy(text) == parse_policy(build_policy_source(pid, cfg)), pid


# PhoneExtBlk

def test_phone_ext_blk_foreign_vs_domestic():
    trace = [dial(0, "+3912345678"), dial(1000, "+35621123456"), dial(2000, "21234567")]
    assert both_agree("PhoneExtBlk", trace) == ["Blocked", "Allowed", "Allowed"]


def test_phone_ext_blk_respects_home_code():
    cfg = dataclasses.replace(DEFAULT_CONFIG, home_country_code="+39")
    trace = [dial(0, "+3912345678"), dial(1000, "+35621123456")]
    assert both_agree("PhoneExtBlk", trace, cfg) == ["Allowed", "Blocked"]


# URLBlkReq

def test_url_blk_req_blocklist():
    trace = [url(0, "news.example/today"), url(1, "casino.example/spin")]
    assert both_agree("URLBlkReq", trace) == ["Allowed", "Blocked"]


def test_url_blk_req_empty_blocklist_allows_everything():
    cfg = dataclasses.replace(DEFAULT_CONFIG, url_blocklist=())
    trace = [url(0, "casino.example/spin")]
    assert both_agree("URLBlkReq", trace, cfg) == ["Allowed"]


# WiFiLmt

def test_wifi_lmt_afternoon_block_morning_allow():
    trace = [wifi(9 * MS_PER_HOUR, True), wifi(14 * MS_PER_HOUR, True)]
    assert both_agree("WiFiLmt", trace) == ["Allowed", "Blocked"]


def test_wifi_lmt_disable_requests_always_pass():
    trace = [wifi(14 * MS_PER_HOUR, False)]
    assert both_agree("WiFiLmt", trace) == ["Allowed"]


def test_wifi_lmt_zero_channel_messages():
    cp = compile_corpus_policy("WiFiLmt")
    trace = [wifi(14 * MS_PER_HOUR, True), wifi(15 * MS_PER_HOUR, True)]
    res = run(trace, cp)
    assert res.decisions() == ["Blocked", "Blocked"]
    assert len(res.channel_entries) == 0


def test_wifi_lmt_work_hours_config():
    cfg = dataclasses.replace(DEFAULT_CONFIG, work_hours=(9, 17))
    trace = [wifi(8 * MS_PER_HOUR, True), wifi(10 * MS_PER_HOUR, True), wifi(18 * MS_PER_HOUR, True)]
    assert both_agree("WiFiLmt", trace, cfg) == ["Allowed", "Blocked", "Allowed"]


# FileAccessLmt

def test_file_access_lmt_authorization():
    trace = [
        open_file(0, "/work/confidential/prices.db", app="StockControl"),
        open_file(1, "/work/confidential/prices.db", app="Maps"),
        open_file(2, "/tmp/scratch", app="Maps"),
    ]
    assert both_agree("FileAccessLmt", trace) == ["Allowed", "Blocked", "Allowed"]


def test_file_access_lmt_prefix_without_authorized_apps():
    cfg = dataclasses.replace(
        DEFAULT_CONFIG, protected_paths=("/secret",), authorized_apps={}
    )
    trace = [open_file(0, "/secret/x", app="StockControl")]
    assert both_agree("FileAccessLmt", trace, cfg) == ["Blocked"]


# PhoneTimeLim

def test_phone_time_lim_four_hour_budget():
    # one 3h59m call, then a second call: allowed; after it pushes past 4h,
    # a third dial is blocked
    trace = [
        dial(0),
        end_call(239 * MS_PER_MINUTE),
        dial(240 * MS_PER_MINUTE),
        end_call(242 * MS_PER_MINUTE),
        dial(243 * MS_PER_MINUTE),
    ]
    assert both_agree("PhoneTimeLim", trace) == ["Allowed", "Allowed", "Allowed", "Allowed", "Blocked"]


def test_phone_time_lim_blocks_redial_during_long_call():
    trace = [dial(0), dial(241 * MS_PER_MINUTE), end_call(242 * MS_PER_MINUTE)]
    # the second dial happens 4h01m into an ongoing call
    assert both_agree("PhoneTimeLim", trace) == ["Allowed", "Blocked", "Allowed"]


def test_phone_time_lim_midnight_split():
    # a call from 22:00 to 02:00 charges two hours to each day, so the
    # next morning's budget has two hours left
    day = MS_PER_DAY
    trace = [
        dial(22 * MS_PER_HOUR),
        end_call(day + 2 * MS_PER_HOUR),
        dial(day + 3 * MS_PER_HOUR),
        end_call(day + 5 * MS_PER_HOUR - MS_PER_MINUTE),  # 1h59m more
        dial(day + 6 * MS_PER_HOUR),
        end_call(day + 6 * MS_PER_HOUR + 2 * MS_PER_MINUTE),
        dial(day + 7 * MS_PER_HOUR),
    ]
    assert both_agree("PhoneTimeLim", trace) == [
        "Allowed", "Allowed", "Allowed", "Allowed", "Allowed", "Allowed", "Blocked",
    ]


# GamePlayLmt

def test_game_play_lmt_blocks_past_three_hours():
    # game foregrounded 3h59m cumulative: launches after the 3h mark blocked
    trace = [
        launch(0, "GameBlast"),
        launch(179 * MS_PER_MINUTE, "Maps"),        # 2h59m of play
        launch(180 * MS_PER_MINUTE, "GameBlast"),   # still under 3h
        launch(240 * MS_PER_MINUTE, "GamePuzzle"),  # 3h59m cumulative: blocked
    ]
    assert both_agree("GamePlayLmt", trace) == ["Allowed", "Allowed", "Allowed", "Blocked"]


def test_game_play_lmt_resets_next_day():
    trace = [
        launch(0, "GameBlast"),
        launch(200 * MS_PER_MINUTE, "Maps"),
        launch(201 * MS_PER_MINUTE, "GameBlast"),  # over 3h today: blocked
        launch(MS_PER_DAY + MS_PER_HOUR, "GameBlast"),  # fresh budget
    ]
    assert both_agree("GamePlayLmt", trace) == ["Allowed", "Allowed", "Blocked", "Allowed"]


def test_game_play_lmt_nongame_launches_never_blocked():
    trace = [launch(0, "GameBlast"), launch(4 * MS_PER_HOUR, "Maps"), launch(5 * MS_PER_HOUR, "Maps")]
    assert both_agree("GamePlayLmt", trace) == ["Allowed", "Allowed", "Allowed"]


# OneHrPerSittingOnly

def test_one_hour_sitting_block_and_release():
    trace = sends_every(MS_PER_MINUTE, 121)
    decisions = both_agree("OneHrPerSittingOnly", trace)
    assert decisions[59] == "Allowed"
    assert decisions[60] == "Blocked"
    later = trace + [send(135 * MS_PER_MINUTE)]
    assert both_agree("OneHrPerSittingOnly", later)[-1] == "Allowed"


def test_one_hour_sitting_mixed_calls_count_as_use():
    # gaps all under the 15-minute threshold: one continuous sitting
    trace = [
        send(0),
        url(14 * MS_PER_MINUTE, "news.example"),
        open_file(28 * MS_PER_MINUTE, "/tmp/x"),
        dial(42 * MS_PER_MINUTE),
        end_call(56 * MS_PER_MINUTE),
        wifi(61 * MS_PER_MINUTE, False),
    ]
    assert both_agree("OneHrPerSittingOnly", trace) == ["Allowed"] * 5 + ["Blocked"]


def test_one_hour_sitting_respects_config_threshold():
    cfg = dataclasses.replace(DEFAULT_CONFIG, idle_threshold_ms=5 * MS_PER_MINUTE)
    trace = [send(0), send(61 * MS_PER_MINUTE)]  # a 61-minute gap: new sitting
    assert both_agree("OneHrPerSittingOnly", trace, cfg) == ["Allowed", "Allowed"]


# MsgTimeLmt

def test_msg_time_lmt_exact_scenario():
    t1 = 10 * MS_PER_SECOND
    trace = [send(t1), send(t1 + 59 * MS_PER_SECOND), send(t1 + 59 * MS_PER_SECOND + 61 * MS_PER_SECOND)]
    assert both_agree("MsgTimeLmt", trace) == ["Allowed", "Blocked", "Allowed"]


def test_msg_time_lmt_blocked_attempt_does_not_rearm_by_default():
    trace = [send(0), send(30 * MS_PER_SECOND), send(70 * MS_PER_SECOND)]
    # 70s after the previous allowed send: allowed even though a blocked
    # attempt happened at 30s
    assert both_agree("MsgTimeLmt", trace) == ["Allowed", "Blocked", "Allowed"]


def test_msg_time_lmt_attempt_anchor_flag():
    cfg = dataclasses.replace(DEFAULT_CONFIG, msg_gap_anchor="attempt")
    trace = [send(0), send(30 * MS_PER_SECOND), send(70 * MS_PER_SECOND)]
    # the blocked attempt at 30s re-arms the timer: 70s is only 40s later
    assert both_agree("MsgTimeLmt", trace, cfg) == ["Allowed", "Blocked", "Blocked"]


def test_msg_time_lmt_gap_measured_device_wide():
    trace = [send(0, app="A"), send(30 * MS_PER_SECOND, app="B")]
    assert both_agree("MsgTimeLmt", trace) == ["Allowed", "Blocked"]


# MsgCntLmt

def test_msg_cnt_lmt_daily_quota_and_reset():
    day = MS_PER_DAY
    trace = sends_every(100, 501) + [send(day + 1000), send(day + 70_000)]
    decisions = both_agree("MsgCntLmt", trace)
    assert decisions[499] == "Allowed"
    assert decisions[500] == "Blocked"
    assert decisions[501] == "Allowed"  # new day, fresh counter


# MsgCntLmtHr

def test_msg_cnt_lmt_hr_sliding_window():
    trace = sends_every(30 * MS_PER_SECOND, 101)  # 101 sends in 50 minutes
    decisions = both_agree("MsgCntLmtHr", trace)
    assert decisions[:100] == ["Allowed"] * 100
    assert decisions[100] == "Blocked"
    # after the window slides past the first send, room opens up again
    reopened = sends_every(30 * MS_PER_SECOND, 101) + [send(30 * MS_PER_SECOND * 99 + MS_PER_HOUR + 1)]
    assert both_agree("MsgCntLmtHr", reopened)[-1] == "Allowed"


def test_msg_cnt_lmt_hr_state_stays_pruned():
    cp = compile_corpus_policy("MsgCntLmtHr")
    trace = sends_every(24 * MS_PER_SECOND, 450)  # 150 sends per hour for 3 hours
    res = run(trace, cp)
    times = res.global_state.vars.get("sendTimes", VType.TS_LIST)
    assert len(times) <= 100


def test_game_play_lmt_session_spanning_midnight():
    # play from 23:00 to 02:00: one hour charged to day 0, two to day 1,
    # leaving one hour of day-1 budget
    day = MS_PER_DAY
    trace = [
        launch(23 * MS_PER_HOUR, "GameBlast"),
        launch(day + 2 * MS_PER_HOUR, "Maps"),
        launch(day + 3 * MS_PER_HOUR, "GameBlast"),      # 2h used today: allowed
        launch(day + 3 * MS_PER_HOUR + 59 * MS_PER_MINUTE, "Maps"),
        launch(day + 4 * MS_PER_HOUR, "GamePuzzle"),     # 2h59m used: allowed
        launch(day + 5 * MS_PER_HOUR, "GameBlast"),      # 3h59m used: blocked
    ]
    assert both_agree("GamePlayLmt", trace) == ["Allowed"] * 5 + ["Blocked"]


def test_phone_time_lim_call_spanning_two_midnights():
    # a call from day0 23:00 to day2 01:00 charges day 2 only one hour
    day = MS_PER_DAY
    trace = [
        dial(23 * MS_PER_HOUR),
        end_call(2 * day + MS_PER_HOUR),
        dial(2 * day + 2 * MS_PER_HOUR),                 # 1h used: allowed
        end_call(2 * day + 4 * MS_PER_HOUR + 59 * MS_PER_MINUTE),
        dial(2 * day + 5 * MS_PER_HOUR),                 # 3h59m used: allowed
        end_call(2 * day + 5 * MS_PER_HOUR + 2 * MS_PER_MINUTE),
        dial(2 * day + 6 * MS_PER_HOUR),                 # over 4h: blocked
    ]
    assert both_agree("PhoneTimeLim", trace) == ["Allowed"] * 6 + ["Blocked"]


def test_msg_cnt_lmt_hr_window_boundary_inclusive():
    # 100 sends in a burst, then one exactly one hour after the first:
    # the first send still counts (now - t <= window), so it is blocked;
    # one millisecond later the window has slid past it
    burst = sends_every(MS_PER_SECOND, 100)
    at_edge = burst + [send(MS_PER_HOUR)]
    assert both_agree("MsgCntLmtHr", at_edge)[-1] == "Blocked"
    past_edge = burst + [send(MS_PER_HOUR + 1)]
    assert both_agree("MsgCntLmtHr", past_edge)[-1] == "Allowed"


def test_one_hour_sitting_blocked_attempts_keep_sitting_alive():
    trace = sends_every(MS_PER_MINUTE, 70)  # blocked from minute 60
    # a 14-minute pause does not end the sitting: still blocked
    still = trace + [send(69 * MS_PER_MINUTE + 14 * MS_PER_MINUTE)]
    assert both_agree("OneHrPerSittingOnly", still)[-1] == "Blocked"
    # and that blocked attempt re-arms the idle timer: 14 more minutes of
    # silence is still not a break
    again = still + [send(69 * MS_PER_MINUTE + 28 * MS_PER_MINUTE)]
    assert both_agree("OneHrPerSittingOnly", again)[-1] == "Blocked"
    # a full 15-minute gap finally ends it
    rested = again + [send(69 * MS_PER_MINUTE + 43 * MS_PER_MINUTE)]
    assert both_agree("OneHrPerSittingOnly", rested)[-1] == "Allowed"


# cross-app invariance for the device-centric counting policies

@pytest.mark.parametrize("pid", ["MsgCntLmt", "MsgCntLmtHr", "MsgTimeLmt", "OneHrPerSittingOnly"])
def test_splitting_across_apps_keeps_decisions(pid):
    single = sends_every(37 * MS_PER_SECOND, 160)
    split = sends_every(37 * MS_PER_SECOND, 160, apps=[f"App{i}" for i in range(4)])
    assert engine_decisions(pid, single) == engine_decisions(pid, split)
