#!/usr/bin/env python3
"""Diff two `fedsz_campaign --trace` files, ignoring wall-clock fields.

Usage: tools/trace_diff.py A.json B.json

Two runs of the same spec must agree on every virtual-clock, byte and
weight field of their traces, whatever the host load or transport. This
strips only the fields measured on the wall clock — the run's
total_wall_seconds, each round's codec/train/eval timings, each shipped
partial's encode/decode time — plus each client's Eqn (1) `decision`,
which is scored from measured compression time. Then it compares the
rest. Exits 0 when the traces match; otherwise prints the first differing
JSON path and exits 1.
"""

import json
import re
import sys

TOP_WALL = {"total_wall_seconds"}
ROUND_WALL = {
    "train_seconds",
    "compress_seconds",
    "decompress_seconds",
    "eval_seconds",
    "downlink_encode_seconds",
    "downlink_decode_seconds",
    "ef_decode_seconds",
    "backhaul_encode_seconds",
    "backhaul_decode_seconds",
}
EDGE_WALL = {"encode_seconds", "decode_seconds"}


def drop(obj, keys):
    return {k: v for k, v in obj.items() if k not in keys}


def strip(trace):
    out = drop(trace, TOP_WALL)
    rounds = []
    for record in trace.get("rounds", []):
        record = drop(record, ROUND_WALL)
        record["clients"] = [
            drop(c, {"decision"}) for c in record.get("clients", [])
        ]
        record["edges"] = [drop(e, EDGE_WALL) for e in record.get("edges", [])]
        rounds.append(record)
    out["rounds"] = rounds
    return out


def first_difference(a, b, path="$"):
    """The JSON path of the first place `a` and `b` differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                return f"{path}.{key}"
            found = first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        if len(a) != len(b):
            return f"{path}[{min(len(a), len(b))}]"
        return None
    if type(a) is not type(b) or a != b:
        return path
    return None


def lookup(obj, path):
    """The value at `path` (as first_difference spells it), or '<missing>'."""
    for key, index in re.findall(r"\.([^.\[]+)|\[(\d+)\]", path[1:]):
        try:
            obj = obj[key] if key else obj[int(index)]
        except (KeyError, IndexError, TypeError):
            return "<missing>"
    return json.dumps(obj)[:200]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    traces = []
    for name in argv[1:]:
        with open(name, encoding="utf-8") as f:
            traces.append(strip(json.load(f)))
    path = first_difference(*traces)
    if path is None:
        return 0
    print(f"traces differ at {path}")
    for name, trace in zip(argv[1:], traces):
        print(f"  {name}: {lookup(trace, path)}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
