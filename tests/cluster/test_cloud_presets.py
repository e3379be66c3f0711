"""Cloud instance presets (paper Table 1) and cluster factories."""

import pytest

from repro.cluster.cloud_presets import (
    ALIYUN_GN10X,
    AWS_P3_16XLARGE,
    TENCENT_18XLARGE320,
    make_cluster,
    paper_testbed,
    table1_rows,
)


class TestTable1:
    def test_rows_match_paper(self):
        rows = table1_rows()
        assert rows == [
            ("AWS", "p3.16xlarge", 488, "EBS", 25),
            ("Aliyun", "c10g1.20xlarge", 336, "OSS", 32),
            ("Tencent", "18XLARGE320", 320, "CFS", 25),
        ]
        for inst in (AWS_P3_16XLARGE, ALIYUN_GN10X, TENCENT_18XLARGE320):
            assert inst.storage_type in inst.nfs.name

    def test_instance_gpu_count(self):
        for inst in (AWS_P3_16XLARGE, ALIYUN_GN10X, TENCENT_18XLARGE320):
            assert inst.gpus == 8
            assert "V100" in inst.gpu_model

    def test_inter_link_matches_network_column(self):
        assert ALIYUN_GN10X.inter_link.bandwidth == pytest.approx(32e9 / 8)
        assert TENCENT_18XLARGE320.inter_link.bandwidth == pytest.approx(25e9 / 8)


class TestFactories:
    def test_paper_testbed_shape(self):
        net = paper_testbed()
        assert net.num_nodes == 16
        assert net.gpus_per_node == 8
        assert net.world_size == 128

    def test_make_cluster_by_name(self):
        net = make_cluster(4, "aws")
        assert net.world_size == 32

    def test_make_cluster_gpu_override(self):
        net = make_cluster(2, "tencent", gpus_per_node=2)
        assert net.world_size == 4

    def test_make_cluster_unknown(self):
        with pytest.raises(KeyError):
            make_cluster(4, "oracle")

    def test_testbed_links_are_hierarchical(self):
        net = paper_testbed()
        assert net.intra.beta * 4 < net.inter.beta
