#include <gtest/gtest.h>

#include "workloads/autopilot.h"
#include "workloads/bifpn.h"
#include "workloads/fusion.h"
#include "workloads/resnet.h"
#include "workloads/trunks.h"

namespace cnpu {
namespace {

// --- ResNet backbone (paper Fig. 2: 90x160 / 45x80 / 23x40 / 12x20) ---

TEST(Resnet, StageDimsMatchPaper) {
  const ResnetConfig cfg;
  const FeatureDims s1 = resnet_stage_dims(cfg, 0);
  EXPECT_EQ(s1.h, 90);
  EXPECT_EQ(s1.w, 160);
  const FeatureDims s2 = resnet_stage_dims(cfg, 1);
  EXPECT_EQ(s2.h, 45);
  EXPECT_EQ(s2.w, 80);
  const FeatureDims s3 = resnet_stage_dims(cfg, 2);
  EXPECT_EQ(s3.h, 23);
  EXPECT_EQ(s3.w, 40);
  const FeatureDims s4 = resnet_stage_dims(cfg, 3);
  EXPECT_EQ(s4.h, 12);
  EXPECT_EQ(s4.w, 20);
}

TEST(Resnet, BackboneLayerStructure) {
  const std::vector<LayerDesc> layers = build_resnet_backbone();
  // stem conv + pool + 4 stages * (2 blocks * ~3.5 layers).
  ASSERT_GE(layers.size(), 25u);
  EXPECT_EQ(layers.front().name, "FE_STEM_CONV");
  EXPECT_EQ(layers.front().r, 7);
  EXPECT_EQ(layers[1].kind, OpKind::kPool);
  for (const auto& l : layers) EXPECT_TRUE(l.validate().empty()) << l.name;
}

TEST(Resnet, EveryBlockHasResidualAdd) {
  const std::vector<LayerDesc> layers = build_resnet_backbone();
  int adds = 0;
  for (const auto& l : layers) {
    if (l.kind == OpKind::kElementwise) ++adds;
  }
  EXPECT_EQ(adds, 8);  // 4 stages x 2 blocks
}

TEST(Resnet, DownsampleProjectionOncePerStage) {
  const std::vector<LayerDesc> layers = build_resnet_backbone();
  int ds = 0;
  for (const auto& l : layers) {
    if (l.name.find("_DS") != std::string::npos) {
      ++ds;
      EXPECT_EQ(l.r, 1);
      EXPECT_EQ(l.stride, 2);
    }
  }
  EXPECT_EQ(ds, 4);
}

TEST(Resnet, MacsInExpectedRange) {
  // ~10 GMACs for the 720p backbone.
  const double g = total_macs(build_resnet_backbone()) / 1e9;
  EXPECT_GT(g, 7.0);
  EXPECT_LT(g, 14.0);
}

// --- BiFPN ---

TEST(Bifpn, LateralsCoverAllScales) {
  const std::vector<LayerDesc> layers = build_bifpn(ResnetConfig{});
  int laterals = 0;
  for (const auto& l : layers) {
    if (l.name.find("BFPN_LAT_") != std::string::npos) ++laterals;
  }
  EXPECT_EQ(laterals, 4);
}

TEST(Bifpn, TwoBlocksOfSixNodes) {
  const std::vector<LayerDesc> layers = build_bifpn(ResnetConfig{});
  int dw = 0;
  for (const auto& l : layers) {
    if (l.kind == OpKind::kDepthwiseConv) ++dw;
  }
  EXPECT_EQ(dw, 12);  // 6 nodes x 2 blocks
}

TEST(Bifpn, HeadEmitsAttentionGrid) {
  const BifpnConfig cfg;
  const std::vector<LayerDesc> layers = build_bifpn(ResnetConfig{}, cfg);
  const LayerDesc& head = layers.back();
  EXPECT_EQ(head.name, "BFPN_GRID_EMBED");
  EXPECT_EQ(head.y, cfg.grid_h);
  EXPECT_EQ(head.x, cfg.grid_w);
  EXPECT_EQ(head.k, cfg.embed_dim);
}

TEST(Bifpn, FullFeModelValidates) {
  const Model m = build_fe_bfpn_model("FE");
  EXPECT_GT(m.num_layers(), 40);
  for (const auto& l : m.layers) EXPECT_TRUE(l.validate().empty()) << l.name;
  // Per-camera output: 200x80x256 embedding.
  EXPECT_DOUBLE_EQ(m.output_bytes(), 200.0 * 80 * 256);
}

// --- Attention / fusion ---

TEST(Attention, ModuleLayout) {
  AttentionConfig cfg;
  cfg.prefix = "X";
  cfg.kv_tokens = 3200;
  const std::vector<LayerDesc> layers = build_attention_module(cfg);
  ASSERT_EQ(layers.size(), 7u);
  EXPECT_EQ(layers[0].name, "X_QKV_Proj");
  EXPECT_EQ(layers[1].name, "X_ATTN_QK");
  EXPECT_EQ(layers[2].name, "X_SOFTMAX");
  EXPECT_EQ(layers[3].name, "X_ATTN_AV");
  EXPECT_EQ(layers[4].name, "X_FFN1");
  EXPECT_EQ(layers[5].name, "X_FFN2");
  EXPECT_EQ(layers[6].name, "X_OUT");
}

TEST(Attention, QkvCoversQueriesAndKv) {
  AttentionConfig cfg;
  cfg.prefix = "X";
  cfg.queries = 100;
  cfg.kv_tokens = 300;
  const std::vector<LayerDesc> layers = build_attention_module(cfg);
  EXPECT_EQ(layers[0].y, 100 + 2 * 300);
}

TEST(Fusion, SpatialConfigMatchesPaper) {
  const AttentionConfig s = spatial_attention_config();
  EXPECT_EQ(s.queries, 16000);           // 200x80 grid
  EXPECT_EQ(s.kv_tokens, 8 * 16000);     // 8 cameras
  EXPECT_EQ(s.model_dim, 256);
  const Model m = build_spatial_fusion_model();
  EXPECT_DOUBLE_EQ(m.output_bytes(), 16000.0 * 256);
}

TEST(Fusion, TemporalConfigMatchesPaper) {
  const AttentionConfig t = temporal_attention_config();
  EXPECT_EQ(t.kv_tokens, 12 * 16000);  // N = 12 queue frames
  EXPECT_EQ(t.model_dim, 304);         // paper: 300-wide spatio-temporal
  EXPECT_EQ(t.head_dim() * t.heads, t.model_dim);
}

TEST(Fusion, TemporalHeavierThanSpatial) {
  EXPECT_GT(build_temporal_fusion_model().macs(),
            build_spatial_fusion_model().macs());
}

// --- Trunks ---

TEST(Trunks, OccupancyUpsamplesSixteenX) {
  const TrunkConfig cfg;
  const Model occ = build_occupancy_trunk(cfg);
  ASSERT_EQ(occ.layers.size(), 4u);
  const LayerDesc& last = occ.layers.back();
  EXPECT_EQ(last.y, cfg.grid_h * 16);
  EXPECT_EQ(last.x, cfg.grid_w * 16);
  for (const auto& l : occ.layers) {
    EXPECT_EQ(l.kind, OpKind::kTransposedConv);
    EXPECT_EQ(l.stride, 2);
  }
}

TEST(Trunks, OccupancyStageSweep) {
  for (int stages = 1; stages <= 4; ++stages) {
    const Model occ = build_occupancy_trunk(TrunkConfig{}, stages);
    EXPECT_EQ(occ.layers.size(), static_cast<std::size_t>(stages));
  }
}

TEST(Trunks, LaneContextScalesTokens) {
  const TrunkConfig cfg;
  const Model full = build_lane_trunk(cfg, 1.0);
  const Model half = build_lane_trunk(cfg, 0.5);
  // Self-attention tokens halve; cross KV (ungated grid) does not.
  EXPECT_EQ(full.layers[1].y, 1600);
  EXPECT_EQ(half.layers[1].y, 800);
  EXPECT_LT(half.macs(), full.macs());
  EXPECT_GT(half.macs(), full.macs() * 0.3);
}

TEST(Trunks, LaneHasThreeLevelsAndClassifiers) {
  const Model lane = build_lane_trunk(TrunkConfig{}, 1.0);
  int ffn = 0;
  int cls = 0;
  for (const auto& l : lane.layers) {
    if (l.name.find("_FFN1") != std::string::npos) ++ffn;
    if (l.name.find("LANE_CLS") != std::string::npos) ++cls;
  }
  EXPECT_EQ(ffn, 3);
  EXPECT_EQ(cls, 3);
}

TEST(Trunks, LaneContextClamped) {
  const Model tiny = build_lane_trunk(TrunkConfig{}, 0.0);
  EXPECT_GE(tiny.layers[1].y, 1);
  const Model over = build_lane_trunk(TrunkConfig{}, 2.0);
  EXPECT_EQ(over.layers[1].y, 1600);
}

TEST(Trunks, DetectionHeadStructure) {
  const Model det = build_detection_head("VEH", TrunkConfig{});
  // 2 nets x (3 convs + FC).
  EXPECT_EQ(det.layers.size(), 8u);
  int fc = 0;
  for (const auto& l : det.layers) {
    if (l.kind == OpKind::kGemm) ++fc;
  }
  EXPECT_EQ(fc, 2);
  EXPECT_EQ(build_detection_heads().size(), 3u);
}

TEST(Trunks, PreamblePoolsFusedGrid) {
  const Model pre = build_trunk_preamble(TrunkConfig{}, 200, 80);
  ASSERT_EQ(pre.layers.size(), 2u);
  EXPECT_EQ(pre.layers[0].kind, OpKind::kPool);
  EXPECT_EQ(pre.layers[0].y, 20);
  EXPECT_EQ(pre.layers[1].k, 64);
}

// --- Full pipeline assembly ---

TEST(Autopilot, FourStagesWithEightCameras) {
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  ASSERT_EQ(pipe.num_stages(), 4);
  EXPECT_EQ(pipe.stages[0].name, "FE_BFPN");
  EXPECT_EQ(pipe.stages[0].num_models(), 8);
  EXPECT_EQ(pipe.stages[1].num_models(), 1);
  EXPECT_EQ(pipe.stages[2].num_models(), 1);
  // pre + occ + lane + 3 det heads.
  EXPECT_EQ(pipe.stages[3].num_models(), 6);
  EXPECT_EQ(pipe.stages[3].num_prefix_models(), 1);
  EXPECT_EQ(pipe.stages[3].parallel_models().size(), 5u);
}

TEST(Autopilot, FrontDropsTrunks) {
  const PerceptionPipeline front = build_autopilot_front();
  EXPECT_EQ(front.num_stages(), 3);
}

TEST(Autopilot, EveryLayerValidates) {
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  for (const Model* m : pipe.all_models()) {
    for (const auto& l : m->layers) {
      EXPECT_TRUE(l.validate().empty()) << m->name << "/" << l.name;
    }
  }
}

TEST(Autopilot, TotalMacsInExpectedRange) {
  // 8 FE (~12G each) + fusion (~220G) + trunks (~30G).
  const double g = build_autopilot_pipeline().macs() / 1e9;
  EXPECT_GT(g, 250.0);
  EXPECT_LT(g, 450.0);
}

TEST(Autopilot, CamerasConfigurable) {
  AutopilotConfig cfg;
  cfg.num_cameras = 4;
  cfg.fusion.num_cameras = 4;
  const PerceptionPipeline pipe = build_autopilot_pipeline(cfg);
  EXPECT_EQ(pipe.stages[0].num_models(), 4);
}

}  // namespace
}  // namespace cnpu
