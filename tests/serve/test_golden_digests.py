"""Byte-level goldens for the serving host path.

The arrival traces and the per-request CSV are pinned by SHA-256 so a
host-side rewrite of request generation, the failure-window lookup, the
batcher or the CSV writer must reproduce every draw and every byte.
The digests were recorded before those paths were optimised; a change
to any of them means the arrival stream or the artifact changed, which
is never an incidental effect of a speedup.
"""

import hashlib

import pytest

from repro.serve.cluster import ClusterConfig, ClusterSimulator
from repro.serve.costmodel import ServiceCostTable
from repro.serve.failures import FailureConfig
from repro.serve.fleet import FleetSimulator, ServeConfig
from repro.serve.metrics import compute_metrics
from repro.serve.report import ServeRun, write_csv
from repro.serve.resilience import ResilienceConfig
from repro.serve.workload import (
    ARRIVALS,
    MIXES,
    WorkloadConfig,
    generate_requests,
)


def _trace_digest(requests) -> str:
    h = hashlib.sha256()
    for r in requests:
        h.update(f"{r.rid},{r.kind},{r.tile},{r.arrival!r}\n".encode())
    return h.hexdigest()


def _table(max_batch=4):
    cycles = {}
    for kind, c in (("bp", 9_000.0), ("conv", 6_000.0), ("gibbs", 11_000.0)):
        cycles[(kind, 1, False)] = c
        cycles[(kind, 1, True)] = 1.5 * c
    for b in range(1, max_batch + 1):
        cycles[("fc", b, False)] = 1_500.0 + 400.0 * b
        cycles[("fc", b, True)] = 2.0 * (1_500.0 + 400.0 * b)
    return ServiceCostTable(
        cycles=cycles,
        model_bytes={"bp": 8_000, "conv": 4_000, "fc": 16_000, "gibbs": 8_000},
        tile_bytes={"bp": 800, "conv": 0, "fc": 0, "gibbs": 800},
        quick=True, max_batch=max_batch, fc_cap=max_batch)


def _csv_digest(tmp_path, workload, config, simulator):
    requests = generate_requests(workload)
    result = simulator(config, _table(config.max_batch)).run(requests)
    metrics = compute_metrics(result.records, result.batches,
                              result.makespan, slo_cycles=config.slo_cycles,
                              clock_ghz=config.clock_ghz)
    path = tmp_path / "serve.csv"
    write_csv([ServeRun(workload=workload, fleet=result, metrics=metrics)],
              str(path))
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), data


#: (mix, arrival, seed, num_tiles) -> SHA-256 of the 300-request trace.
TRACE_DIGESTS = {
    ("bp", "poisson", 0, 3):
        "1ade0970013d24401187cd7f547fad185339c9035e7b68420345af86a67cd70b",
    ("bp", "poisson", 7, 38):
        "6787a2872cdb29c9901eb30758541d664e88b2f8d64fa9704f2a236c92cb62aa",
    ("bp", "bursty", 0, 3):
        "9f6835dad3785e85531743e6fc2b0247c23a2ca77ec1bc94628ef30338424c42",
    ("bp", "bursty", 7, 38):
        "d3616f6889d7c49185fb32648b892615a1d33b81a83988fc24a7eb68aca80904",
    ("bp+gibbs", "poisson", 0, 3):
        "0f4ffd505a7cdf73a8a234c11570ccf0d24d922e04e216731658b334f35b8881",
    ("bp+gibbs", "poisson", 7, 38):
        "0388d85c4810755e84009a382206bce22f1840ea17b88fd0f9e3283ef60b260a",
    ("bp+gibbs", "bursty", 0, 3):
        "76858ccd79e4857b3dd55e695ac340a7b976c39451c64931ac9424a6f4fb1775",
    ("bp+gibbs", "bursty", 7, 38):
        "f8aa02ce22c6c64067346d3eb563afafa1a622f8718aac99197d2b5af8e23aa5",
    ("bp+vgg", "poisson", 0, 3):
        "d92d40eee3f5ea4dacc7bf9369876cff38d9009d0a983cb23b2f5bb546db2618",
    ("bp+vgg", "poisson", 7, 38):
        "513e5de256cbd5f869442eff507d5712b4a1786efc3ce631d824b7efd1c53852",
    ("bp+vgg", "bursty", 0, 3):
        "9cee15ae0b599c729b8c0d32d364eb98471fb27a91f638026bd81522383d1874",
    ("bp+vgg", "bursty", 7, 38):
        "fb512b7c10315434345da4cdc95eba0612379e98064cd9a6fcbe339d4914c359",
    ("fc", "poisson", 0, 3):
        "2976b46b15b49d65ebc35a8b0674290d27de969e34f546f4b241aa4abdafc484",
    ("fc", "poisson", 7, 38):
        "8df271a2bceae80693c2b24f913094146e5d2e702e515b5cc857fa28499b52b0",
    ("fc", "bursty", 0, 3):
        "0bb522ba550758a0d0b08e29ecfb87dd3ec293c613585fff55733dca281aa334",
    ("fc", "bursty", 7, 38):
        "3388744a00ccf8117a77e6d94b7dbc0d79cc31e5fae344119f21714bbecbeb22",
    ("uq", "poisson", 0, 3):
        "5f7ea7cbf73700cee2c308192ebfee0005306cb4d5c13dbeee579b9fba529d3e",
    ("uq", "poisson", 7, 38):
        "4a84eb99d940f0c64cf12baa97782f9a4631244957aaef27cb1a614877bc9584",
    ("uq", "bursty", 0, 3):
        "dee63983ba4dd2045e4213628670d2e865f93499f0d7b5b8b5b7bc69ba1ca5a3",
    ("uq", "bursty", 7, 38):
        "353b2c1651bd56b558b194c6b7457598b7cb2786226b6a6a478bc1ea9bb1c5b9",
    ("vgg", "poisson", 0, 3):
        "7955f028d3cab4ad93fdb89201c9216c1f53491d88234c509ba2c8b20a52ce59",
    ("vgg", "poisson", 7, 38):
        "c32c2861bbc39f35352ab8bede93acfad08edaff265cc8b5527a2901fa538955",
    ("vgg", "bursty", 0, 3):
        "186e06bb83acc41070c05a62a3d43cd4343242b72a913ee975b9220f07bac7bb",
    ("vgg", "bursty", 7, 38):
        "78a237aeb04623d10477811721887a535ee4faa34d9ee8c6272df2504d774832",
}


@pytest.mark.parametrize("mix", sorted(MIXES))
@pytest.mark.parametrize("arrival", ARRIVALS)
@pytest.mark.parametrize("seed", [0, 7])
def test_generate_requests_golden(mix, arrival, seed):
    num_tiles = 3 + 5 * seed
    cfg = WorkloadConfig(mix=mix, arrival=arrival, rate=120_000.0,
                         requests=300, seed=seed, num_tiles=num_tiles)
    digest = _trace_digest(generate_requests(cfg))
    assert digest == TRACE_DIGESTS[(mix, arrival, seed, num_tiles)]


FLEET_CSV_DIGEST = (
    "d3a69c9e93999b582b082de2901ef1128ccbc6edbef010388d11b692c2789a6a")


def test_fleet_csv_golden(tmp_path):
    workload = WorkloadConfig(mix="bp+vgg", arrival="poisson",
                              rate=700_000.0, requests=400, seed=11)
    config = ServeConfig(chips=2, max_batch=4, queue_capacity=8)
    digest, data = _csv_digest(tmp_path, workload, config, FleetSimulator)
    rows = data.decode().splitlines()[1:]
    assert len(rows) == 400
    assert {row.split(",")[6] for row in rows} == {"served", "shed"}
    assert digest == FLEET_CSV_DIGEST


CLUSTER_CSV_DIGEST = (
    "5df278f19369e5baa35807bf88d56405ac08073d5dbac0bbe20f5e665c4b389b")


def test_cluster_csv_golden(tmp_path):
    workload = WorkloadConfig(mix="bp+vgg", arrival="bursty",
                              rate=250_000.0, requests=1_500, seed=5,
                              burst_factor=3.0, burst_len=40.0)
    config = ServeConfig(
        chips=2, max_batch=4, queue_capacity=16,
        failures=FailureConfig(seed=3, domains=((0, 1),),
                               domain_mtbf_cycles=800_000.0,
                               domain_repair_mean_cycles=200_000.0,
                               fail_stop_chips=(0,),
                               fail_stop_mtbf_cycles=500_000.0,
                               repair_mean_cycles=100_000.0,
                               fail_slow_chips=(1,),
                               fail_slow_mtbf_cycles=600_000.0,
                               fail_slow_duration_cycles=300_000.0),
        resilience=ResilienceConfig(max_retries=1,
                                    hedge_delay_cycles=20_000.0,
                                    retry_deadline_cycles=100_000.0),
        cluster=ClusterConfig(shards=3, router="least-loaded",
                              failover_retries=1, brownout_headroom=0.6,
                              brownout_kinds=("fc",)))
    digest, data = _csv_digest(tmp_path, workload, config, ClusterSimulator)
    header, *rows = data.decode().splitlines()
    cols = header.split(",")
    cells = [dict(zip(cols, row.split(","))) for row in rows]
    assert len(cells) == 1_500
    # The golden must cover every row shape the writer emits.
    outcomes = {c["outcome"] for c in cells}
    assert outcomes == {"served", "shed", "expired"}
    assert any(c["retries"] not in ("", "0") for c in cells)
    assert any(c["hedged"] == "true" for c in cells)
    assert digest == CLUSTER_CSV_DIGEST
