#!/usr/bin/env python3
"""Validates smoqe-stat output: metrics JSON shape and cross-counter
consistency, Prometheus exposition well-formedness, and the audit log's
reject/accept accounting.

Usage (CI runs all three against one smoqe_stat binary):
    ./build/smoqe_stat --format json  | tools/check_metrics.py json
    ./build/smoqe_stat --format prom  | tools/check_metrics.py prom
    ./build/smoqe_stat --format audit | tools/check_metrics.py audit

The `server` mode validates a STAT frame's JSON payload fetched from a
live smoqed (the server smoke job): the server.* serving-layer metrics
must be present and consistent with the traffic the smoke just sent:
    ./build/smoqe_cli stat --port $PORT | tools/check_metrics.py server

The `profile` mode validates the PROFILE surface. It accepts either a
single profile object (what `smoqe-cli query --profile` prints) or a
slow-query-log array (what `smoqe-stat --format slow` or the STAT slow
sub-command return):
    ./build/smoqe_cli query ... --profile | tools/check_metrics.py profile
    ./build/smoqe_stat --format slow     | tools/check_metrics.py profile
"""

import json
import re
import sys


def fail(msg):
    print(f"check_metrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


REQUIRED_COUNTERS = [
    "query.count",
    "query.errors",
    "query.answers",
    "batch.count",
    "batch.items",
    "update.count",
    "update.accepted",
    "update.rejected",
    "plan_cache.hits",
    "plan_cache.misses",
    "pool.tasks_submitted",
    "pool.tasks_executed",
    "eval.nodes_visited",
]

REQUIRED_GAUGES = [
    "plan_cache.size",
    "pool.queue_depth",
    "snapshot.live",
    "snapshot.created",
    "audit.total",
    "audit.dropped",
]

REQUIRED_HISTOGRAMS = [
    "query.latency_ns",
    "update.latency_ns",
    "batch.latency_ns",
    "pool.task_wait_ns",
]


def check_json(data):
    doc = json.loads(data)  # raises on malformed JSON
    for section in ("counters", "gauges", "histograms"):
        if section not in doc:
            fail(f"missing section '{section}'")
    c, g, h = doc["counters"], doc["gauges"], doc["histograms"]
    for name in REQUIRED_COUNTERS:
        if name not in c:
            fail(f"missing counter '{name}'")
    for name in REQUIRED_GAUGES:
        if name not in g:
            fail(f"missing gauge '{name}'")
    for name in REQUIRED_HISTOGRAMS:
        if name not in h:
            fail(f"missing histogram '{name}'")

    # Cross-counter consistency: the workload's invariants.
    if c["update.count"] != (
        c["update.accepted"] + c["update.rejected"] + c["update.errors"]
    ):
        fail("update.count != accepted + rejected + errors")
    if c["query.errors"] != 0:
        fail("workload queries must not error")
    if c["update.rejected"] < 1:
        fail("workload must include a rejected update")
    if c["pool.tasks_executed"] != c["pool.tasks_submitted"]:
        fail("pool executed != submitted after quiescence")
    if g["pool.queue_depth"] != 0:
        fail("pool queue depth must be 0 after quiescence")
    if g["audit.total"] < c["update.rejected"]:
        fail("audit.total must cover every rejection")
    if g["snapshot.live"] < 1 or g["snapshot.created"] < g["snapshot.live"]:
        fail("snapshot gauges inconsistent")
    # Histogram sanity: counts match the driving counters, quantiles are
    # ordered, sums bound min/max.
    if h["query.latency_ns"]["count"] != c["query.count"]:
        fail("query.latency_ns count != query.count")
    if h["update.latency_ns"]["count"] != c["update.count"]:
        fail("update.latency_ns count != update.count")
    for name, snap in h.items():
        if snap["count"] == 0:
            continue
        if not (snap["min"] <= snap["p50"] * 1.07 and
                snap["p50"] <= snap["p95"] + 1e-9 and
                snap["p95"] <= snap["p99"] + 1e-9 and
                snap["p99"] <= snap["max"] * 1.07):
            fail(f"histogram '{name}' quantiles out of order: {snap}")
        if snap["sum"] < snap["max"]:
            fail(f"histogram '{name}' sum < max")
    print(f"check_metrics: json OK ({len(c)} counters, {len(g)} gauges, "
          f"{len(h)} histograms)")


def check_prom(data):
    typed = set()
    sampled = set()
    for line in data.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "summary"):
                fail(f"bad TYPE line: {line}")
            typed.add(parts[2])
        elif line.startswith("#"):
            continue
        else:
            m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+]+|NaN)$", line)
            if not m:
                fail(f"bad sample line: {line!r}")
            name = m.group(1)
            base = re.sub(r"_(count|sum)$", "", name)
            sampled.add(base if base in typed or name not in typed else name)
            sampled.add(name)
    for required in ("smoqe_query_count", "smoqe_update_rejected",
                     "smoqe_plan_cache_hits"):
        if required not in sampled:
            fail(f"missing sample '{required}'")
    untyped = {s for s in sampled
               if s not in typed and re.sub(r"_(count|sum)$", "", s) not in typed}
    if untyped:
        fail(f"samples without TYPE: {sorted(untyped)[:5]}")
    print(f"check_metrics: prom OK ({len(typed)} metrics)")


def check_audit(data):
    records = json.loads(data)
    if not isinstance(records, list) or not records:
        fail("audit output must be a non-empty JSON array")
    seqs = [r["seq"] for r in records]
    if seqs != sorted(seqs) or len(set(seqs)) != len(seqs):
        fail("audit seq must be strictly increasing")
    rejects = [r for r in records if r["kind"] == "update_reject"]
    if not rejects:
        fail("workload must leave at least one update_reject record")
    for r in rejects:
        if r["allowed"] or not r["explain"]:
            fail(f"reject record without explain: {r}")
    for r in records:
        for key in ("seq", "kind", "view", "doc", "doc_epoch", "statement",
                    "allowed", "explain", "trace_id", "unix_micros"):
            if key not in r:
                fail(f"record missing '{key}': {r}")
        if r["allowed"] and r["explain"]:
            fail(f"allowed record carries an explain: {r}")
    print(f"check_metrics: audit OK ({len(records)} records, "
          f"{len(rejects)} rejects)")


SERVER_COUNTERS = [
    "server.connections_opened",
    "server.connections_closed",
    "server.handshakes",
    "server.handshake_failures",
    "server.requests",
    "server.responses_ok",
    "server.responses_error",
    "server.protocol_errors",
    "server.rejected_pipeline",
    "server.disconnects_mid_request",
    "server.bytes_read",
    "server.bytes_written",
]


def check_server(data):
    doc = json.loads(data)
    for section in ("counters", "gauges", "histograms"):
        if section not in doc:
            fail(f"missing section '{section}'")
    c, h = doc["counters"], doc["histograms"]
    for name in SERVER_COUNTERS:
        if name not in c:
            fail(f"missing server counter '{name}'")
    if "server.request_ns" not in h:
        fail("missing histogram 'server.request_ns'")
    # The dump itself travelled over the wire, so the serving layer
    # cannot be idle in its own report.
    if c["server.connections_opened"] < 1:
        fail("a served stat dump implies >=1 connection")
    if c["server.handshakes"] < 1:
        fail("a served stat dump implies >=1 handshake")
    if c["server.requests"] < 1:
        fail("a served stat dump implies >=1 request")
    if c["server.bytes_read"] < 1 or c["server.bytes_written"] < 1:
        fail("byte counters must reflect the smoke traffic")
    # The in-flight STAT request is counted as received but not yet
    # answered when the dump is taken, hence >= rather than ==.
    if c["server.requests"] < c["server.responses_ok"] + c[
        "server.responses_error"
    ]:
        fail("more responses than requests")
    if c["server.connections_opened"] < c["server.connections_closed"]:
        fail("more connections closed than opened")
    if h["server.request_ns"]["count"] > c["server.requests"]:
        fail("request_ns samples exceed request count")
    print(f"check_metrics: server OK "
          f"(requests={c['server.requests']}, "
          f"handshake_failures={c['server.handshake_failures']})")


PROFILE_KEYS = [
    "trace_id",
    "op",
    "doc",
    "view",
    "statement",
    "canonical_query",
    "plan_cache_hit",
    "doc_epoch",
    "total_ns",
    "guard_ticks",
    "stages",
    "stats",
]

PROFILE_STAT_KEYS = [
    "nodes_visited",
    "answers",
    "cans_entries",
    "max_active_pairs",
    "dom_parts",
]


def check_one_profile(p, where):
    for key in PROFILE_KEYS:
        if key not in p:
            fail(f"{where}: profile missing '{key}'")
    if p["op"] not in ("query", "query_batch", "query_batch_multi", "update"):
        fail(f"{where}: unknown op '{p['op']}'")
    for key in PROFILE_STAT_KEYS:
        if key not in p["stats"]:
            fail(f"{where}: stats missing '{key}'")
    root_ns = 0
    for i, stage in enumerate(p["stages"]):
        for key in ("name", "parent", "ns"):
            if key not in stage:
                fail(f"{where}: stage {i} missing '{key}'")
        # Stages are append-ordered: a parent always precedes its child.
        if not (stage["parent"] == -1 or 0 <= stage["parent"] < i):
            fail(f"{where}: stage {i} parent {stage['parent']} out of range")
        if stage["parent"] == -1:
            root_ns += stage["ns"]
    # Root stages partition (a subset of) the request's wall time; they
    # can never sum past it. Child stages nest inside roots and are
    # excluded, so overlap does not double-count. The batch ops are
    # exempt: their items run concurrently on the pool, so summed stage
    # CPU time exceeding wall time is the parallelism working as intended.
    if not p["op"].startswith("query_batch") and root_ns > p["total_ns"]:
        fail(f"{where}: root stages sum {root_ns} > total_ns "
             f"{p['total_ns']}")


def check_profile(data):
    doc = json.loads(data)
    if isinstance(doc, dict):
        check_one_profile(doc, "profile")
        print(f"check_metrics: profile OK (op={doc['op']}, "
              f"trace_id={doc['trace_id']}, total_ns={doc['total_ns']}, "
              f"{len(doc['stages'])} stages)")
        return
    if not isinstance(doc, list):
        fail("profile input must be a profile object or a slow-log array")
    prev_seq = -1
    for i, entry in enumerate(doc):
        for key in ("seq", "unix_micros", "role", "threshold_ns", "profile"):
            if key not in entry:
                fail(f"slow entry {i} missing '{key}'")
        if entry["seq"] <= prev_seq:
            fail(f"slow entry {i}: seq {entry['seq']} not strictly "
                 f"increasing after {prev_seq}")
        prev_seq = entry["seq"]
        if entry["profile"]["total_ns"] < entry["threshold_ns"]:
            fail(f"slow entry {i}: total_ns {entry['profile']['total_ns']} "
                 f"below threshold {entry['threshold_ns']}")
        check_one_profile(entry["profile"], f"slow entry {i}")
    print(f"check_metrics: profile OK ({len(doc)} slow-log entries)")


def main():
    modes = {
        "json": check_json,
        "prom": check_prom,
        "audit": check_audit,
        "server": check_server,
        "profile": check_profile,
    }
    if len(sys.argv) != 2 or sys.argv[1] not in modes:
        print(__doc__, file=sys.stderr)
        return 2
    data = sys.stdin.read()
    modes[sys.argv[1]](data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
