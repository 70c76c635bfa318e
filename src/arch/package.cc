#include "arch/package.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <stdexcept>

#include "util/strings.h"

namespace cnpu {

PackageConfig::PackageConfig(std::vector<ChipletSpec> chiplets, NopParams nop)
    : chiplets_(std::move(chiplets)), nop_(nop) {
  index_chiplets();
}

void PackageConfig::index_chiplets() {
  id_index_.clear();
  if (chiplets_.empty()) return;
  std::vector<int> ids;
  ids.reserve(chiplets_.size());
  for (const ChipletSpec& c : chiplets_) ids.push_back(c.id);
  std::sort(ids.begin(), ids.end());
  const auto repeat = std::adjacent_find(ids.begin(), ids.end());
  if (repeat != ids.end()) {
    throw std::invalid_argument("PackageConfig: repeated chiplet id " +
                                std::to_string(*repeat));
  }
  // 64-bit: the span of two arbitrary ints overflows int.
  const std::int64_t span = std::int64_t{ids.back()} - ids.front() + 1;
  if (span >
      kIndexSpanPerChiplet * static_cast<std::int64_t>(chiplets_.size())) {
    return;
  }
  id_base_ = ids.front();
  id_index_.assign(static_cast<std::size_t>(span), -1);
  for (std::size_t i = 0; i < chiplets_.size(); ++i) {
    id_index_[static_cast<std::size_t>(chiplets_[i].id - id_base_)] =
        static_cast<int>(i);
  }
}

std::int64_t PackageConfig::total_pes() const {
  std::int64_t total = 0;
  for (const auto& c : chiplets_) total += c.array.num_pes;
  return total;
}

int PackageConfig::position_of(int id) const {
  if (!id_index_.empty()) {
    const std::int64_t slot = std::int64_t{id} - id_base_;
    if (slot < 0 || slot >= static_cast<std::int64_t>(id_index_.size())) {
      return -1;
    }
    return id_index_[static_cast<std::size_t>(slot)];
  }
  for (std::size_t i = 0; i < chiplets_.size(); ++i) {
    if (chiplets_[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

std::size_t PackageConfig::position_of_or_throw(int id) const {
  const int pos = position_of(id);
  if (pos < 0) {
    throw std::out_of_range("no chiplet with id " + std::to_string(id));
  }
  return static_cast<std::size_t>(pos);
}

const ChipletSpec& PackageConfig::chiplet(int id) const {
  return chiplets_[position_of_or_throw(id)];
}

std::optional<int> PackageConfig::find_chiplet_at(const GridCoord& coord,
                                                  int npu) const {
  for (const auto& c : chiplets_) {
    if (c.coord == coord && c.npu == npu) return c.id;
  }
  return std::nullopt;
}

GridCoord PackageConfig::io_coord() const {
  // The I/O port (camera interface / DRAM controller) sits one hop west of
  // the mesh's middle-left chiplet. Failed sites still count toward the
  // geometry: a dead die does not move the physical port.
  int max_row = 0;
  for (const auto& spec : chiplets_) max_row = std::max(max_row, spec.coord.row);
  for (const auto& site : failed_) max_row = std::max(max_row, site.coord.row);
  return GridCoord{max_row / 2, -1};
}

bool PackageConfig::io_port_attached_to(int chiplet_id) const {
  const ChipletSpec& c = chiplet(chiplet_id);
  const GridCoord io = io_coord();
  return c.npu == 0 && c.coord == GridCoord{io.row, 0};
}

bool PackageConfig::site_failed(const GridCoord& coord, int npu) const {
  for (const auto& site : failed_) {
    if (site.coord == coord && site.npu == npu) return true;
  }
  return false;
}

namespace {

// The straight XY (column-first) walk: invokes `step` per coordinate
// visited after `from`.
template <typename Fn>
void xy_walk(const GridCoord& from, const GridCoord& to, Fn&& step) {
  GridCoord cur = from;
  while (cur.col != to.col) {
    cur = GridCoord{cur.row, cur.col + (to.col > cur.col ? 1 : -1)};
    step(cur);
  }
  while (cur.row != to.row) {
    cur = GridCoord{cur.row + (to.row > cur.row ? 1 : -1), cur.col};
    step(cur);
  }
}

}  // namespace

std::vector<GridCoord> PackageConfig::mesh_detour(int npu,
                                                  const GridCoord& from,
                                                  const GridCoord& to) const {
  const auto key = [](const GridCoord& c) { return std::pair(c.row, c.col); };
  std::map<std::pair<int, int>, GridCoord> parent;  // visited -> predecessor
  std::map<std::pair<int, int>, bool> live;
  for (const auto& c : chiplets_) {
    if (c.npu == npu) live[key(c.coord)] = true;
  }
  const auto unreachable = [&]() {
    return std::runtime_error(
        "no route around failed chiplet positions from (" +
        std::to_string(from.row) + "," + std::to_string(from.col) + ") to (" +
        std::to_string(to.row) + "," + std::to_string(to.col) + ") on npu " +
        std::to_string(npu));
  };
  if (site_failed(from, npu) || !live.count(key(to))) throw unreachable();
  std::deque<GridCoord> frontier{from};
  parent[key(from)] = from;
  while (!frontier.empty() && !parent.count(key(to))) {
    const GridCoord c = frontier.front();
    frontier.pop_front();
    for (const GridCoord& next :
         {GridCoord{c.row, c.col + 1}, GridCoord{c.row, c.col - 1},
          GridCoord{c.row + 1, c.col}, GridCoord{c.row - 1, c.col}}) {
      if (!live.count(key(next)) || parent.count(key(next))) continue;
      parent[key(next)] = c;
      frontier.push_back(next);
    }
  }
  if (!parent.count(key(to))) throw unreachable();
  std::vector<GridCoord> path;
  for (GridCoord c = to; !(c == from); c = parent.at(key(c))) {
    path.push_back(c);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

template <typename Step>
void PackageConfig::mesh_walk(int npu, const GridCoord& from,
                              const GridCoord& to, Step&& step) const {
  // A walk cannot DEPART a dead router either — relevant for the cross-NPU
  // fallback, where the start coordinate is the source chiplet's mirror on
  // the destination mesh and may itself have failed.
  bool blocked = site_failed(from, npu) && !(from == to);
  xy_walk(from, to, [&](const GridCoord& next) {
    blocked = blocked || site_failed(next, npu);
  });
  if (!blocked) {
    xy_walk(from, to, step);
    return;
  }
  for (const GridCoord& next : mesh_detour(npu, from, to)) step(next);
}

template <typename Emit>
void PackageConfig::walk_route(const ChipletSpec* from, const ChipletSpec& to,
                               Emit&& emit) const {
  // Directed links of `npu`'s mesh from `at` to the destination coordinate.
  const auto mesh = [&](int npu, GridCoord at) {
    mesh_walk(npu, at, to.coord, [&](const GridCoord& next) {
      emit(NopLink{NopLink::Kind::kMesh, npu, npu, at, next});
      at = next;
    });
  };
  int npu = 0;
  GridCoord start;
  if (from != nullptr) {
    npu = from->npu;
    start = from->coord;
  } else {
    // The physical sensor/DRAM port sits on NPU 0's west edge: every
    // ingress crosses its one fixed link into NPU 0's mesh, whatever the
    // destination NPU, and the port cannot be rebonded when that router
    // died.
    const GridCoord io = io_coord();
    start = GridCoord{io.row, 0};
    if (site_failed(start, 0)) {
      throw std::runtime_error(
          "the router the I/O port attaches to, (" +
          std::to_string(start.row) +
          ",0) on npu 0, was removed - no ingress route exists");
    }
    emit(NopLink{NopLink::Kind::kMesh, 0, 0, io, start});
  }
  if (npu == to.npu) {
    mesh(npu, start);
    return;
  }
  // The substrate is a chain of adjacent-NPU channels: each boundary
  // crossed takes `inter_npu_hops` links keyed by its directed adjacent
  // pair, so ingress and peer traffic crossing the same boundary contend
  // on the same FIFO resources.
  const auto substrate = [&] {
    const int dir = to.npu > npu ? 1 : -1;
    for (int n = npu; n != to.npu; n += dir) {
      for (int step = 0; step < inter_npu_hops_; ++step) {
        emit(NopLink{NopLink::Kind::kSubstrate, n, n + dir, {}, {}, step});
      }
    }
  };
  // Cross-NPU: the source mesh toward the destination's mirror coordinate
  // (the substrate exit), then the substrate. When that walk is impossible
  // (the mirror router died or is cut off), the substrate comes first and
  // the destination mesh after it, so routability stays symmetric with the
  // reverse direction; if that walk is impossible too, its throw is the
  // disconnection error. mesh_walk throws before its first step, so a
  // failed probe has emitted nothing.
  try {
    mesh(npu, start);
  } catch (const std::runtime_error&) {
    substrate();
    mesh(to.npu, start);
    return;
  }
  substrate();
}

int PackageConfig::hops_between(int chiplet_a, int chiplet_b) const {
  if (chiplet_a == chiplet_b) return 0;
  const ChipletSpec& a = chiplet(chiplet_a);
  const ChipletSpec& b = chiplet(chiplet_b);
  // Substrate cost is linear in NPU boundaries crossed, matching
  // hops_from_io's `npu * inter_npu_hops` charge (the substrate is a chain
  // of adjacent-NPU channels, not a dedicated all-pairs crossbar).
  if (failed_.empty()) {
    return mesh_hops(a.coord, b.coord) +
           std::abs(a.npu - b.npu) * inter_npu_hops_;
  }
  // Degraded package: the length of the (possibly detoured) route.
  int hops = 0;
  walk_route(&a, b, [&hops](const NopLink&) { ++hops; });
  return hops;
}

int PackageConfig::hops_from_io(int chiplet_id) const {
  const ChipletSpec& c = chiplet(chiplet_id);
  if (failed_.empty()) {
    return mesh_hops(io_coord(), c.coord) + c.npu * inter_npu_hops_;
  }
  int hops = 0;
  walk_route(nullptr, c, [&hops](const NopLink&) { ++hops; });
  return hops;
}

void PackageConfig::route_between(int chiplet_a, int chiplet_b,
                                  std::vector<NopLink>& out) const {
  out.clear();
  if (chiplet_a == chiplet_b) return;
  const ChipletSpec& a = chiplet(chiplet_a);
  const ChipletSpec& b = chiplet(chiplet_b);
  walk_route(&a, b, [&out](const NopLink& link) { out.push_back(link); });
}

void PackageConfig::route_from_io(int chiplet_id,
                                  std::vector<NopLink>& out) const {
  out.clear();
  const ChipletSpec& c = chiplet(chiplet_id);
  walk_route(nullptr, c, [&out](const NopLink& link) { out.push_back(link); });
}

std::string NopLink::describe() const {
  if (kind == Kind::kSubstrate) {
    return "sub[" + std::to_string(npu) + "->" + std::to_string(npu_to) +
           "]#" + std::to_string(substrate_step);
  }
  const std::string src = is_io_port()
                              ? "io"
                              : "(" + std::to_string(from.row) + "," +
                                    std::to_string(from.col) + ")";
  return "npu" + std::to_string(npu) + ":" + src + "->(" +
         std::to_string(to.row) + "," + std::to_string(to.col) + ")";
}

void PackageConfig::set_chiplet_dataflow(int id, DataflowKind kind) {
  ChipletSpec& c = chiplets_[position_of_or_throw(id)];
  c.array = make_pe_array(kind, c.array.num_pes);
}

void PackageConfig::set_memory(const MemorySpec& memory) {
  for (auto& c : chiplets_) c.memory = memory;
}

void PackageConfig::set_chiplet_memory(int id, const MemorySpec& memory) {
  chiplets_[position_of_or_throw(id)].memory = memory;
}

bool PackageConfig::memory_model_active() const {
  for (const auto& c : chiplets_) {
    if (c.memory.active()) return true;
  }
  return false;
}

PackageConfig PackageConfig::without_chiplet(int id) const {
  std::vector<ChipletSpec> remaining;
  remaining.reserve(chiplets_.size());
  bool found = false;
  FailedSite site;
  for (const auto& c : chiplets_) {
    if (c.id == id) {
      found = true;
      site = FailedSite{c.id, c.coord, c.npu};
      continue;
    }
    remaining.push_back(c);
  }
  if (!found) throw std::out_of_range("no chiplet with id " + std::to_string(id));
  PackageConfig out(std::move(remaining), nop_);
  out.inter_npu_hops_ = inter_npu_hops_;
  out.failed_ = failed_;
  out.failed_.push_back(site);
  return out;
}

std::string PackageConfig::describe() const {
  int os = 0;
  int ws = 0;
  for (const auto& c : chiplets_) {
    (c.dataflow() == DataflowKind::kOutputStationary ? os : ws) += 1;
  }
  std::string out = std::to_string(chiplets_.size()) + " chiplets (" +
                    std::to_string(os) + " OS, " + std::to_string(ws) +
                    " WS), " + format_si(static_cast<double>(total_pes()), 3) +
                    " PEs total";
  if (!failed_.empty()) {
    out += ", " + std::to_string(failed_.size()) + " failed";
  }
  return out;
}

PackageConfig make_simba_package(int rows, int cols, DataflowKind kind,
                                 std::int64_t pes_per_chiplet) {
  assert(rows > 0 && cols > 0);
  std::vector<ChipletSpec> chiplets;
  chiplets.reserve(static_cast<std::size_t>(rows) * cols);
  int id = 0;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      chiplets.push_back(make_chiplet(id++, r, c, kind, pes_per_chiplet));
    }
  }
  return PackageConfig(std::move(chiplets), NopParams{});
}

PackageConfig make_multi_npu_package(int n_npus, int rows, int cols) {
  assert(n_npus > 0);
  std::vector<ChipletSpec> chiplets;
  int id = 0;
  for (int npu = 0; npu < n_npus; ++npu) {
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        ChipletSpec spec = make_chiplet(id++, r, c);
        spec.npu = npu;
        chiplets.push_back(spec);
      }
    }
  }
  return PackageConfig(std::move(chiplets), NopParams{});
}

PackageConfig make_monolithic_package(int n_chips, std::int64_t total_pes,
                                      DataflowKind kind) {
  assert(n_chips > 0);
  std::vector<ChipletSpec> chiplets;
  const std::int64_t pes = total_pes / n_chips;
  for (int i = 0; i < n_chips; ++i) {
    chiplets.push_back(make_chiplet(i, 0, i, kind, pes));
  }
  return PackageConfig(std::move(chiplets), NopParams{});
}

}  // namespace cnpu
