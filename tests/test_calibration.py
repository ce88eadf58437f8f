"""Tests pinning the calibration constants to their paper anchors.

If someone retunes a constant, these tests say exactly which paper
measurement breaks — they are executable provenance for
``repro/calibration.py``.
"""

import dataclasses

import pytest

from repro import calibration as cal


class TestNvmeAnchor:
    """Table 2 closed-form fit."""

    @pytest.mark.parametrize(
        "size,paper_files_per_s",
        [
            (1 * cal.KB, 34353.45),
            (4 * cal.KB, 32841.47),
            (16 * cal.KB, 29724.48),
            (64 * cal.KB, 21072.64),
            (256 * cal.KB, 10903.72),
            (1 * cal.MB, 3104.26),
            (4 * cal.MB, 799.42),
        ],
    )
    def test_within_15_percent_of_table2(self, size, paper_files_per_s):
        p = cal.NvmeProfile()
        model = 1.0 / (p.per_op_s + size / p.bandwidth_bps)
        assert model == pytest.approx(paper_files_per_s, rel=0.15)

    def test_aggregate_pool_near_10GBps(self):
        """Fig 12's 128KB DIESEL ceiling implies ~10 GB/s aggregate."""
        p = cal.NvmeProfile()
        aggregate = p.queue_depth * p.bandwidth_bps
        assert 8 * cal.GB < aggregate < 16 * cal.GB


class TestLustreAnchor:
    def test_mds_qps_from_section_6_3(self):
        assert cal.LustreProfile().mds_qps == pytest.approx(68_000)

    def test_oss_op_rate_matches_fig12(self):
        """Fig 12: ~15.4k files/s at 4KB and ~15.6k at 128KB — both
        op-limited near 1/64µs on a serial path."""
        p = cal.LustreProfile()
        assert p.oss_queue_depth == 1
        rate_4k = 1.0 / (p.oss_per_op_s + 4 * cal.KB / p.oss_bandwidth_bps)
        rate_128k = 1.0 / (p.oss_per_op_s + 128 * cal.KB / p.oss_bandwidth_bps)
        assert rate_4k == pytest.approx(15_411, rel=0.15)
        # size term stays secondary: 128KB within 30% of 4KB rate
        assert rate_128k > 0.7 * rate_4k

    def test_create_cost_matches_fig9(self):
        """Fig 9: Lustre ≈ 2M/366.7 ≈ 5.5k 4KB creates/s over 64 procs."""
        p = cal.LustreProfile()
        create_s = p.oss_per_op_s * p.write_amplification
        assert 1.0 / create_s == pytest.approx(5_454, rel=0.25)


class TestMemcachedAnchor:
    def test_cluster_read_ceiling_from_fig11a(self):
        p = cal.MemcachedProfile()
        assert 10 * p.server_qps == pytest.approx(560_000)

    def test_large_set_cost_from_fig9(self):
        """Fig 9 at 128KB: ~37k SETs/s over 64 procs ⇒ ~1.7ms per SET."""
        p = cal.MemcachedProfile()
        per_set = p.write_per_op_s + 128 * cal.KB * p.write_per_byte_s
        assert 64 / per_set == pytest.approx(37_000, rel=0.25)


class TestRedisAnchor:
    def test_cluster_cap_from_memtier(self):
        assert cal.RedisProfile().cluster_qps == pytest.approx(970_000)


class TestDieselAnchor:
    def test_snapshot_lookup_from_fig10b(self):
        """8.83M QPS per 16-thread node ⇒ 1.81µs per lookup."""
        p = cal.DieselProfile()
        node_qps = 16 / p.client_meta_lookup_s
        assert node_qps == pytest.approx(8.83e6, rel=0.05)

    def test_five_servers_reach_redis_cap(self):
        """Fig 10a: five DIESEL servers ≈ the 0.97M QPS Redis cap."""
        assert 5 * cal.DieselProfile().server_meta_qps == pytest.approx(
            970_000, rel=0.10
        )

    def test_put_cost_from_fig9(self):
        """Fig 9: ~2M 4KB DL_puts/s over 64 procs ⇒ ~30µs per file."""
        p = cal.DieselProfile()
        per_put = p.client_put_overhead_s + 4 * cal.KB * p.client_put_per_byte_s
        assert 64 / per_put == pytest.approx(2.0e6, rel=0.4)


class TestModelZoo:
    def test_four_paper_models_present(self):
        assert set(cal.MODEL_ZOO) == {"alexnet", "vgg11", "resnet18",
                                      "resnet50"}

    def test_compute_ordering(self):
        z = cal.MODEL_ZOO
        assert z["alexnet"].compute_s < z["resnet18"].compute_s
        assert z["resnet18"].compute_s < z["resnet50"].compute_s

    def test_resnet50_total_in_paper_range(self):
        """§6.6: 90-epoch totals between 29h (DIESEL) and 66h (Lustre)."""
        compute_h = 90 * 5005 * cal.MODEL_ZOO["resnet50"].compute_s / 3600
        assert 25 < compute_h < 40  # pure compute near the DIESEL total


class TestProfileHygiene:
    def test_all_profiles_frozen(self):
        for profile in (
            cal.NvmeProfile(), cal.HddProfile(), cal.NetworkProfile(),
            cal.RpcProfile(), cal.LustreProfile(), cal.MemcachedProfile(),
            cal.RedisProfile(), cal.DieselProfile(), cal.FuseProfile(),
            cal.Calibration(),
        ):
            assert dataclasses.is_dataclass(profile)
            with pytest.raises(dataclasses.FrozenInstanceError):
                object.__setattr__  # noqa: B018 - reference only
                setattr(profile, list(dataclasses.asdict(profile))[0], 0)

    def test_default_bundle_consistency(self):
        assert cal.DEFAULT.redis.instances == 16  # Table 4's Redis cluster
        assert cal.DEFAULT.network.bandwidth_bps == pytest.approx(12.5e9)
