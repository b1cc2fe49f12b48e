"""The benchmark's own test: tracing coverage, trace transparency and seeding.

    python3 -m pytest bench/test_bench.py -q
"""

import hashlib
import os
import shutil

import pytest

import run
from spans import Tracer
from workloads import WORKLOADS, make_jobs

# A few cheap jobs per workload, by kind; together they enter every layer.
SMALL = {
    "laurent": ("koszul-cross+pres", "koszul-refusal", "tower-homology", "tower-pi"),
    "field": ("milnor-comm", "milnor-free", "arr-lattice", "arr-dense", "arr-nonres"),
}
# The layers each workload is meant to exercise.
MEANT = {
    "laurent": ("rings", "linalg", "chain", "koszul", "fox", "tower", "cli"),
    "field": ("rings", "linalg", "chain", "fox", "milnor", "arrangement", "cli"),
}


def small_jobs(workload):
    jobs = make_jobs(workload, 0)
    picked = []
    for kind in SMALL[workload]:
        picked.append(next(j for j in jobs if j.kind == kind))
    return picked


def run_all(cli, jobs, workdir, tracer=None):
    digests = []
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
        rc, _, out, error = run.run_job(cli, job, k, workdir)
        assert error is None, (job.id, error)
        assert rc == job.expect_exit, job.id
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    return digests


@pytest.fixture
def workdir(tmp_path):
    path = str(tmp_path / "work")
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_layers_and_keeps_outputs(workload, workdir):
    cli = run.import_program()
    from arrtwist import koszul, linalg

    original = linalg.rank
    jobs = small_jobs(workload)
    run.write_inputs(jobs, workdir)
    plain = run_all(cli, jobs, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_all(cli, jobs, workdir, tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    for layer in MEANT[workload]:
        assert tracer.layer_calls[layer] > 0, layer
    spans = tracer.spans()
    assert spans and all(end >= start for _, start, end, _, _ in spans)
    assert {job for *_, job in spans} == set(range(len(jobs)))
    metrics = tracer.layer_metrics(1)
    assert all(v >= 0 for v in metrics.values())
    # uninstall restores every original binding
    assert koszul.rank is original and linalg.rank is original
    assert run_all(cli, jobs, workdir) == plain


def test_binding_sites_are_wrapped():
    run.import_program()
    from arrtwist import arrangement, chain, koszul, linalg

    originals = linalg.rank
    tracer = Tracer()
    tracer.install()
    try:
        assert linalg.rank is not originals
        assert koszul.rank is linalg.rank is chain.rank is arrangement.rank
    finally:
        tracer.uninstall()
    assert koszul.rank is originals is chain.rank


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs_and_size_classes(workload):
    a, b, other = make_jobs(workload, 0), make_jobs(workload, 0), make_jobs(workload, 1)

    def inputs(jobs):
        return [(j.id, j.argv, j.files) for j in jobs]

    assert inputs(a) == inputs(b)
    assert [(j.id, j.sizes) for j in a] == [(j.id, j.sizes) for j in other]
    assert inputs(a) != inputs(other)


def test_expected_digests_cover_every_seed0_job():
    import json

    with open(run.EXPECTED) as fh:
        data = json.load(fh)
    assert data["seed"] == 0
    for workload in WORKLOADS:
        ids = [j.id for j in make_jobs(workload, 0)]
        assert sorted(data["jobs"][workload]) == sorted(ids)


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(x) for x in range(40)])
    assert value == 29.0 and pct == 75.0


def test_missing_program_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    with pytest.raises(run.ProgramMissing):
        run.import_program()
    assert not os.listdir(tmp_path)
