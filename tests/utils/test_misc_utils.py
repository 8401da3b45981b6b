"""Tests for serialization and duration-text utilities."""

from __future__ import annotations

import dataclasses
import enum
import json

import numpy as np
import pytest

from repro.utils.serialization import dump_json, to_jsonable


class Color(enum.Enum):
    RED = "red"


@dataclasses.dataclass
class Point:
    x: float
    y: float


class TestToJsonable:
    def test_passthrough_builtins(self):
        assert to_jsonable({"a": 1, "b": [1.5, "x", None, True]}) == {
            "a": 1,
            "b": [1.5, "x", None, True],
        }

    def test_numpy_scalars_and_arrays(self):
        out = to_jsonable({"s": np.float64(2.5), "a": np.arange(3)})
        assert out == {"s": 2.5, "a": [0, 1, 2]}

    def test_non_float_numpy_scalars_become_python_scalars(self):
        out = to_jsonable([np.int64(3), np.bool_(True), np.float32(0.5)])
        assert out == [3, True, 0.5]
        assert [type(value) for value in out] == [int, bool, float]

    def test_paths_and_non_string_keys_become_strings(self, tmp_path):
        out = to_jsonable({1: tmp_path / "store.jsonl", (2, 3): "x"})
        assert out == {"1": str(tmp_path / "store.jsonl"), "(2, 3)": "x"}
        json.dumps(out)  # must not raise

    def test_enum(self):
        assert to_jsonable(Color.RED) == "red"

    def test_dataclass(self):
        assert to_jsonable(Point(1.0, 2.0)) == {"x": 1.0, "y": 2.0}

    def test_sets_become_lists(self):
        assert sorted(to_jsonable({1, 2, 3})) == [1, 2, 3]

    def test_as_dict_protocol(self):
        class WithAsDict:
            def as_dict(self):
                return {"k": 1}

        assert to_jsonable(WithAsDict()) == {"k": 1}

    def test_unconvertible_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


class TestDumpJson:
    def test_round_trip(self, tmp_path):
        payload = {"values": [1, 2, 3], "nested": {"x": 1.5}}
        path = dump_json(payload, tmp_path / "out" / "data.json")
        assert path.exists()
        assert json.loads(path.read_text()) == payload


class TestFormatDuration:
    def test_sub_minute_keeps_decimals(self):
        from repro.utils.timer import format_duration

        assert format_duration(0.25) == "0.25s"
        assert format_duration(37.251) == "37.25s"

    def test_h_m_s_style(self):
        from repro.utils.timer import format_duration

        assert format_duration(9251) == "2h 34m 11s"
        assert format_duration(60) == "1m 0s"
        assert format_duration(3600) == "1h 0m 0s"
        assert format_duration(90061) == "1d 1h 1m 1s"
        assert format_duration(2 * 86400 + 5) == "2d 0h 0m 5s"

    def test_rounds_to_whole_seconds_past_a_minute(self):
        from repro.utils.timer import format_duration

        assert format_duration(59.994) == "59.99s"
        assert format_duration(61.4) == "1m 1s"
        assert format_duration(119.6) == "2m 0s"

    def test_negative_is_signed(self):
        from repro.utils.timer import format_duration

        assert format_duration(-61) == "-1m 1s"

    def test_branch_follows_the_value_rounded_to_hundredths(self):
        from repro.utils.timer import format_duration

        assert format_duration(59.994) == "59.99s"
        assert format_duration(59.996) == "1m 0s"
        assert format_duration(-59.999) == "-1m 0s"
