// MCM package: a mesh of accelerator chiplets plus the NoP parameters.
//
// The paper's reference design is a Simba-like 6x6 mesh of 256-PE OS
// chiplets (9,216 PEs, matching the Tesla FSD NPU). Packages may be
// heterogeneous (OS + WS chiplets, Sec. IV-C) and may span two NPUs
// (Sec. V-B), in which case cross-NPU transfers pay extra substrate hops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/chiplet.h"
#include "arch/nop.h"

namespace cnpu {

// One directed link of the package fabric, the unit of contention in the
// link-level NoP simulator (src/sim/nop_sim.h):
//  * kMesh     - a hop between adjacent grid coordinates of one NPU's mesh.
//    The west-edge I/O port link (sensor/DRAM ingress) is the mesh link
//    whose source column is -1; every camera frame crosses it.
//  * kSubstrate- one of the `inter_npu_hops` substrate hops between NPUs.
// Links are directed: (a -> b) and (b -> a) are distinct resources, as in a
// full-duplex mesh.
struct NopLink {
  enum class Kind { kMesh, kSubstrate };
  Kind kind = Kind::kMesh;
  int npu = 0;     // mesh: owning NPU; substrate: source NPU
  int npu_to = 0;  // substrate: destination NPU (== npu for mesh links)
  GridCoord from;  // mesh endpoints (unused for substrate links)
  GridCoord to;
  int substrate_step = 0;  // which of the inter_npu_hops substrate hops

  bool is_io_port() const { return kind == Kind::kMesh && from.col < 0; }
  std::string describe() const;
  bool operator==(const NopLink&) const = default;
};

// Strict weak order so links can key associative containers.
bool operator<(const NopLink& a, const NopLink& b);

// A grid position whose chiplet was removed by without_chiplet. The
// position's mesh router dies with its chiplet (there is no standalone
// router die on the package), so routes must detour around it.
struct FailedSite {
  int chiplet_id = -1;
  GridCoord coord;
  int npu = 0;

  bool operator==(const FailedSite&) const = default;
};

class PackageConfig {
 public:
  PackageConfig() = default;
  // Throws std::invalid_argument, naming the id, when two chiplets share an
  // id.
  PackageConfig(std::vector<ChipletSpec> chiplets, NopParams nop);

  const std::vector<ChipletSpec>& chiplets() const { return chiplets_; }
  const NopParams& nop() const { return nop_; }
  void set_nop(const NopParams& nop) { nop_ = nop; }
  int num_chiplets() const { return static_cast<int>(chiplets_.size()); }
  std::int64_t total_pes() const;

  // Throws std::out_of_range when no chiplet has that id.
  const ChipletSpec& chiplet(int id) const;
  // Position of chiplet `id` in chiplets(); -1 when no chiplet has it. O(1)
  // through the id index.
  int position_of(int id) const;
  // nullopt when no chiplet has that id.
  std::optional<int> find_chiplet_at(const GridCoord& coord, int npu = 0) const;

  // Mesh hops between two chiplets (XY routing); crossing NPU packages adds
  // `inter_npu_hops` substrate hops per NPU boundary crossed (the substrate
  // is a chain of adjacent-NPU channels — consistent with hops_from_io's
  // linear charge). On a degraded package (see without_chiplet) the mesh
  // segment is the shortest detour around the failed positions, so hop
  // counts can exceed the Manhattan distance; a cross-NPU pair whose
  // substrate exit-mirror router died walks the destination NPU's mesh
  // after the crossing instead (routability stays symmetric); throws
  // std::runtime_error when failures genuinely disconnect the pair.
  int hops_between(int chiplet_a, int chiplet_b) const;
  // Hops from the package I/O port (sensor/DRAM entry at the west edge) to a
  // chiplet.
  int hops_from_io(int chiplet_id) const;

  // The ordered directed-link list a transfer from `chiplet_a` to
  // `chiplet_b` traverses under XY (column-first) routing. The mesh segment
  // is attributed to the source chiplet's NPU; crossing NPUs appends
  // `inter_npu_hops` substrate links per adjacent NPU boundary, keyed by
  // the directed boundary pair so all flows crossing a boundary share the
  // same FIFO resources. Empty when a == b. The list length always equals
  // hops_between(a, b), so the contended simulator and the analytical hop
  // count can never disagree on route length. On a degraded package the
  // route never touches a failed position: when the straight XY walk would
  // cross one, a shortest detour (BFS over the surviving routers,
  // column-first neighbor order for determinism) is taken instead; throws
  // std::runtime_error when no detour exists.
  std::vector<NopLink> route_between(int chiplet_a, int chiplet_b) const;
  // Route of a sensor/DRAM ingress transfer: the XY path from the single
  // physical west-edge I/O port across NPU 0's mesh (its first link is the
  // shared ingress bottleneck every camera frame crosses, whatever the
  // destination NPU), then substrate crossings into the chiplet's NPU.
  // Length equals hops_from_io(chiplet_id).
  std::vector<NopLink> route_from_io(int chiplet_id) const;

  int inter_npu_hops() const { return inter_npu_hops_; }
  void set_inter_npu_hops(int hops) { inter_npu_hops_ = hops; }

  // Replaces the dataflow style of one chiplet (heterogeneous integration).
  void set_chiplet_dataflow(int id, DataflowKind kind);

  // Applies one MemorySpec to every chiplet (homogeneous memory provisioning;
  // the common case). Apply before building schedules/programs — SimEngine
  // caches compiled programs per schedule and does not watch for later spec
  // edits. without_chiplet copies survive the specs.
  void set_memory(const MemorySpec& memory);
  // Per-chiplet override (heterogeneous memory provisioning).
  void set_chiplet_memory(int id, const MemorySpec& memory);
  // True when any chiplet's memory model participates (capacity checks or
  // reload charging); false for the default all-unbounded package, which is
  // the bitwise-identical legacy behavior.
  bool memory_model_active() const;

  // A copy of this package with one chiplet removed (fault isolation /
  // yield-degraded parts - a key modularity argument for chiplets). The
  // removed position is recorded as a FailedSite: its router dies with the
  // chiplet, so hops_between / route_between / route_from_io detour around
  // it on the returned package. The I/O port keeps its original position
  // (package geometry does not change when a die fails); if the router the
  // port attaches to is itself removed, route_from_io throws.
  PackageConfig without_chiplet(int id) const;

  // Positions removed by without_chiplet, in removal order. Empty for a
  // healthy package.
  const std::vector<FailedSite>& failed_sites() const { return failed_; }

  // Whether this chiplet's router is the one the west-edge I/O port is
  // physically bonded to. Removing it severs ingress (route_from_io
  // throws), so fault studies pick their victims elsewhere.
  bool io_port_attached_to(int chiplet_id) const;

  std::string describe() const;

 private:
  // The sensor/DRAM port position: one hop west of NPU 0's middle-left
  // chiplet. Failed sites still count toward the geometry — a dead die
  // does not move the physical port.
  GridCoord io_coord() const;

  bool site_failed(const GridCoord& coord, int npu) const;
  // The one route walk: calls emit(link) per directed link from `from` to
  // `to` in traversal order (a null `from` is the I/O port, whose fixed
  // link into NPU 0's west-edge router comes first). Within one NPU it is
  // the mesh walk; across NPUs, the source mesh toward the destination's
  // mirror coordinate and then the substrate, or, when that mesh walk is
  // impossible, the substrate first and then the destination mesh.
  // route_between and route_from_io collect the links and a degraded
  // package's hop counts count them, so a route and its hop count cannot
  // disagree. Throws std::runtime_error when failed sites disconnect the
  // pair or removed the port's router.
  template <typename Emit>
  void walk_route(const ChipletSpec* from, const ChipletSpec& to,
                  Emit&& emit) const;
  // Calls step(next) per coordinate of `npu`'s mesh visited after `from` on
  // the way to `to`: the straight XY (column-first) walk when it touches no
  // failed site, which allocates nothing, else mesh_detour's path. Throws
  // before its first step when no detour exists.
  template <typename Step>
  void mesh_walk(int npu, const GridCoord& from, const GridCoord& to,
                 Step&& step) const;
  // The shortest detour around the failed sites: BFS over the positions of
  // `npu`'s mesh that still hold a chiplet, column-first neighbor order for
  // determinism. Returns the coordinates visited after `from`; throws
  // std::runtime_error when `from` died or `to` is unreachable.
  std::vector<GridCoord> mesh_detour(int npu, const GridCoord& from,
                                     const GridCoord& to) const;

  // position_of, throwing std::out_of_range when no chiplet has the id.
  std::size_t position_of_or_throw(int id) const;

  // Builds id_index_ from chiplets_, throwing std::invalid_argument on a
  // repeated id. The chiplet-list constructor calls it, and without_chiplet
  // builds its copy through that constructor.
  void index_chiplets();

  std::vector<ChipletSpec> chiplets_;
  // id - id_base_ -> position with that id, -1 for a gap. Built only
  // while the ids span at most kIndexSpanPerChiplet x the chiplet count, so
  // its memory follows the chiplet count and never the largest id (bundle
  // ids are untrusted input); sparser ids leave it empty and lookups scan.
  static constexpr std::int64_t kIndexSpanPerChiplet = 4;
  std::vector<int> id_index_;
  int id_base_ = 0;
  std::vector<FailedSite> failed_;
  NopParams nop_;
  int inter_npu_hops_ = 4;
};

// Simba-like `rows x cols` mesh of uniform chiplets (default 6x6 OS 256-PE).
PackageConfig make_simba_package(
    int rows = 6, int cols = 6,
    DataflowKind kind = DataflowKind::kOutputStationary,
    std::int64_t pes_per_chiplet = cal::kPesPerChiplet);

// `n_npus` Simba meshes pooled into one scheduling domain (Sec. V-B).
PackageConfig make_multi_npu_package(int n_npus, int rows = 6, int cols = 6);

// Baseline "package": `n_chips` monolithic accelerators that split the same
// total PE budget (Table II: 1x9216, 2x4608, 4x2304).
PackageConfig make_monolithic_package(
    int n_chips, std::int64_t total_pes = 9216,
    DataflowKind kind = DataflowKind::kOutputStationary);

}  // namespace cnpu
