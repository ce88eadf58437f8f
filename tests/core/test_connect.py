"""Tests for DL_connect authentication and simulation determinism."""

import pytest

from repro.core.client import connect
from repro.errors import AuthError

from tests.core.conftest import build_deployment, small_files, write_dataset


class TestConnect:
    def test_open_deployment_accepts_anyone(self, deployment):
        def proc():
            client = yield from connect(
                deployment.env, deployment.client_nodes[0],
                deployment.servers, "ds", user="alice", key="whatever",
            )
            return client

        client = deployment.run(proc())
        assert client.dataset == "ds"

    def test_keyed_deployment_checks_credentials(self, deployment):
        deployment.server.access_keys = {"alice": "s3cret"}

        def good():
            client = yield from connect(
                deployment.env, deployment.client_nodes[0],
                deployment.servers, "ds", user="alice", key="s3cret",
            )
            return client

        assert deployment.run(good()).dataset == "ds"

        def bad():
            yield from connect(
                deployment.env, deployment.client_nodes[0],
                deployment.servers, "ds", user="alice", key="wrong",
            )

        with pytest.raises(AuthError):
            deployment.run(bad())

        def unknown_user():
            yield from connect(
                deployment.env, deployment.client_nodes[0],
                deployment.servers, "ds", user="mallory", key="s3cret",
            )

        with pytest.raises(AuthError):
            deployment.run(unknown_user())

    def test_connected_client_works_end_to_end(self, deployment):
        files = small_files(4)
        write_dataset(deployment, "ds", files)

        def proc():
            client = yield from connect(
                deployment.env, deployment.client_nodes[1],
                deployment.servers, "ds", name="authed",
            )
            data = yield from client.get(next(iter(files)))
            return data

        assert deployment.run(proc()) == next(iter(files.values()))


class TestDeterminism:
    """Identical inputs must give bit-identical simulated outcomes —
    the property that makes every experiment in EXPERIMENTS.md
    reproducible."""

    def _run_once(self):
        dep = build_deployment()
        files = small_files(12)
        client = write_dataset(dep, "ds", files)

        def load():
            blob = yield from client.save_meta()
            yield from client.load_meta(blob)

        dep.run(load())
        client.enable_shuffle(group_size=2)
        plan = client.epoch_file_list(seed=5)

        def epoch():
            for path in plan.files:
                yield from client.get(path)

        dep.run(epoch())
        return dep.env.now, tuple(plan.files), client.stats.server_reads

    def test_two_identical_runs_agree_exactly(self):
        a = self._run_once()
        b = self._run_once()
        assert a == b

    def test_experiment_determinism(self):
        from repro.bench.experiments import table2_read_bandwidth

        r1 = table2_read_bandwidth(reads_per_size=50)
        r2 = table2_read_bandwidth(reads_per_size=50)
        assert r1.rows == r2.rows
