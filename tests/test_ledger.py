import time

import pytest

from fedbiwgan.ledger import CostLedger, PhaseTimer, flop_estimates


def test_add_and_totals():
    ledger = CostLedger()
    ledger.add_message(1, "monitor[0.0]->manager[0]", "feedback", 100, 16)
    ledger.add_message(2, "monitor[0.0]->manager[0]", "feedback", 200, 16)
    ledger.add_message(2, "manager[0]->controller", "params_up", 50, 16)
    by_class = ledger.totals_by_link_class()
    assert by_class["monitor->manager"]["payload_bytes"] == 300
    assert by_class["manager->controller"]["messages"] == 1
    assert ledger.message_count("feedback") == 2


def test_negative_bytes_rejected():
    with pytest.raises(ValueError):
        CostLedger().add_message(0, "x", "y", -1, 0)


def test_csv_roundtrip(tmp_path):
    ledger = CostLedger()
    ledger.add_message(1, "a->b", "feedback", 10, 2)
    ledger.add_message(3, "b->a", "gen_packet", 20, 4)
    path = tmp_path / "ledger.csv"
    ledger.write_csv(path)
    back = CostLedger.read_csv(path)
    assert back.records == ledger.records


def test_phase_timer_accumulates():
    ledger = CostLedger()
    with PhaseTimer(ledger, "work"):
        time.sleep(0.01)
    with PhaseTimer(ledger, "work"):
        pass
    assert ledger.phase_seconds["work"] >= 0.01


def test_flop_closed_forms():
    counts = {"generator": 100, "encoder": 60, "critic": 40}
    est = flop_estimates(counts, iterations=10, critic_iters=5, batch_size=8,
                         monitors_per_slice=3, slices=2, local_iters=5)
    assert est["monitor"] == 4 * 10 * (1 + 5) * 8 * 40
    assert est["manager"] == 2 * 10 * 8 * 3 * (60 + 100)
    assert est["controller"] == 2 * (60 + 100) * 10 // 5
