"""Deterministic cost accounting: exact byte counts per link and round,
floating-point-operation estimates from the closed-form complexity
expressions, and wall-clock time per phase.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class CostLedger:
    # one row per message: (iteration, link, msg_kind, payload, overhead)
    records: list = field(default_factory=list)
    phase_seconds: dict = field(default_factory=lambda: defaultdict(float))
    param_counts: dict = field(default_factory=dict)

    def add_message(self, iteration, link, msg_kind, payload, overhead):
        if payload < 0 or overhead < 0:
            raise ValueError("byte counts must be non-negative")
        self.records.append({
            "iteration": iteration,
            "link": link,
            "kind": msg_kind,
            "payload_bytes": payload,
            "overhead_bytes": overhead,
        })

    def add_phase(self, phase, seconds):
        self.phase_seconds[phase] += seconds

    def totals_by_link_class(self):
        """Collapse per-node links into the two tiers of the topology."""
        totals = defaultdict(lambda: {"payload_bytes": 0, "overhead_bytes": 0, "messages": 0})
        for rec in self.records:
            cls = _link_class(rec["link"])
            agg = totals[cls]
            agg["payload_bytes"] += rec["payload_bytes"]
            agg["overhead_bytes"] += rec["overhead_bytes"]
            agg["messages"] += 1
        return dict(totals)

    def message_count(self, kind):
        return sum(1 for r in self.records if r["kind"] == kind)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["iteration", "link", "kind", "payload_bytes", "overhead_bytes"]
            )
            writer.writeheader()
            writer.writerows(self.records)

    @classmethod
    def read_csv(cls, path):
        ledger = cls()
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                ledger.records.append({
                    "iteration": int(row["iteration"]),
                    "link": row["link"],
                    "kind": row["kind"],
                    "payload_bytes": int(row["payload_bytes"]),
                    "overhead_bytes": int(row["overhead_bytes"]),
                })
        return ledger


def _link_class(link):
    if "monitor" in link and "manager" in link:
        return "monitor->manager" if link.startswith("monitor") else "manager->monitor"
    if "controller" in link:
        return "manager->controller" if link.startswith("manager") else "controller->manager"
    return link


class PhaseTimer:
    def __init__(self, ledger: CostLedger, phase: str):
        self.ledger = ledger
        self.phase = phase

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.ledger.add_phase(self.phase, time.perf_counter() - self.start)
        return False


def flop_estimates(param_counts, iterations, critic_iters, batch_size,
                   monitors_per_slice, slices, local_iters):
    """Closed-form per-node-class floating point operation estimates with
    unit proportionality constants:
      monitor:    4 * I * (1 + K) * M * |theta_D|
      manager:    2 * I * M * N * (|theta_E| + |theta_G|)
      controller: S * (|theta_E| + |theta_G|) * I / L
    """
    theta_d = param_counts.get("critic", 0)
    theta_g = param_counts.get("generator", 0)
    theta_e = param_counts.get("encoder", 0)
    return {
        "monitor": 4 * iterations * (1 + critic_iters) * batch_size * theta_d,
        "manager": 2 * iterations * batch_size * monitors_per_slice * (theta_e + theta_g),
        "controller": slices * (theta_e + theta_g) * iterations // local_iters,
    }
