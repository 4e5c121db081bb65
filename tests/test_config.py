import json

import pytest

from dcmon.config import ConfigError, DEFAULT_CONFIG, SimConfig, config_from_dict, load_config
from dcmon.corpus import compile_corpus_policy
from dcmon.engine import CompiledPolicy
from dcmon.lang.values import INT64_MAX, MS_PER_MINUTE, MS_PER_SECOND


def test_roundtrip_through_dict():
    assert config_from_dict(DEFAULT_CONFIG.to_dict()) == DEFAULT_CONFIG


def test_load_from_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"home_country_code": "+49", "idle_threshold_ms": 60000}), encoding="utf-8")
    cfg = load_config(p)
    assert cfg.home_country_code == "+49"
    assert cfg.idle_threshold_ms == 60000
    assert cfg.url_blocklist == DEFAULT_CONFIG.url_blocklist


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"no_such_key": 1})


def test_bad_anchor_rejected():
    with pytest.raises(ConfigError):
        SimConfig(msg_gap_anchor="sometimes")


def test_bad_work_hours_rejected():
    with pytest.raises(ConfigError):
        SimConfig(work_hours=(17, 9))
    with pytest.raises(ConfigError):
        config_from_dict({"work_hours": [9]})


def test_sub_second_idle_threshold_rejected():
    with pytest.raises(ConfigError, match="whole number of seconds"):
        SimConfig(idle_threshold_ms=1500)
    with pytest.raises(ConfigError, match="whole number of seconds"):
        config_from_dict({"idle_threshold_ms": 1500})


def test_idle_threshold_above_int64_max_rejected():
    with pytest.raises(ConfigError, match="at most 9223372036854775807"):
        config_from_dict({"idle_threshold_ms": 10**22})
    with pytest.raises(ConfigError, match="at most"):
        SimConfig(idle_threshold_ms=10**22)


@pytest.mark.parametrize("unit_ms", [MS_PER_SECOND, MS_PER_MINUTE])
def test_largest_idle_threshold_compiles(unit_ms):
    # the largest whole number of seconds, and of minutes, that the bound
    # admits renders as a duration literal that validation accepts
    cfg = SimConfig(idle_threshold_ms=INT64_MAX - INT64_MAX % unit_ms)
    assert isinstance(compile_corpus_policy("OneHrPerSittingOnly", cfg), CompiledPolicy)


def test_protected_paths_alone_keep_the_default_grants_they_protect():
    # a document without authorized_apps drops each default grant whose
    # prefix it does not protect
    assert config_from_dict({"protected_paths": ["/secret"]}).authorized_apps == {}
    both = config_from_dict({"protected_paths": ["/secret", "/work/confidential"]})
    assert both.authorized_apps == DEFAULT_CONFIG.authorized_apps
    assert isinstance(compile_corpus_policy("FileAccessLmt", both), CompiledPolicy)
    # an explicit grant of an unprotected prefix is still an error
    with pytest.raises(ConfigError, match="unprotected prefix '/work/confidential'"):
        config_from_dict({"protected_paths": ["/secret"], "authorized_apps": {"/work/confidential": ["A"]}})


def test_authorized_apps_must_reference_protected_prefix():
    with pytest.raises(ConfigError):
        SimConfig(protected_paths=(), authorized_apps={"/x": ("A",)})


def test_bad_json_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(p)
