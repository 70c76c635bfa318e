#include "sim/nop_sim.h"

namespace cnpu {

const LinkStats* hottest_link(const std::vector<LinkStats>& stats) {
  const LinkStats* hot = nullptr;
  for (const LinkStats& l : stats) {
    if (hot == nullptr || l.utilization > hot->utilization) hot = &l;
  }
  return hot;
}

void NopFabric::reset_state() {
  std::fill(free_.begin(), free_.end(), 0.0);
  std::fill(busy_.begin(), busy_.end(), 0.0);
  std::fill(max_wait_.begin(), max_wait_.end(), 0.0);
  std::fill(total_wait_.begin(), total_wait_.end(), 0.0);
  std::fill(messages_.begin(), messages_.end(), 0);
}

int NopFabric::index_of(const NopLink& link) {
  const auto [it, inserted] =
      index_.try_emplace(link, static_cast<int>(links_.size()));
  if (inserted) {
    links_.push_back(link);
    free_.push_back(0.0);
    busy_.push_back(0.0);
    max_wait_.push_back(0.0);
    total_wait_.push_back(0.0);
    messages_.push_back(0);
  }
  return it->second;
}

std::vector<int> NopFabric::resolve(const std::vector<NopLink>& route) {
  std::vector<int> indices;
  indices.reserve(route.size());
  for (const NopLink& link : route) indices.push_back(index_of(link));
  return indices;
}

double NopFabric::inject(const std::vector<int>& route, double bytes,
                         double time) {
  // Infinite bandwidth divides to exactly 0.0: zero-width occupancies never
  // conflict and the returned wait is exactly 0.0.
  const double ser = bytes > 0.0 ? bytes / params_.bandwidth_bytes_per_s : 0.0;
  double t = time;
  double waited = 0.0;
  for (const int li : route) {
    const std::size_t i = static_cast<std::size_t>(li);
    const double start = free_[i] > t ? free_[i] : t;
    const double wait = start - t;
    waited += wait;
    if (wait > max_wait_[i]) max_wait_[i] = wait;
    total_wait_[i] += wait;
    free_[i] = start + ser;
    busy_[i] += ser;
    ++messages_[i];
    t = start + ser;
  }
  return waited;
}

void NopFabric::stats_into(double horizon_s, const std::vector<int>& links,
                           std::vector<LinkStats>& out) const {
  out.clear();
  for (const int li : links) {
    const std::size_t i = static_cast<std::size_t>(li);
    LinkStats s;
    s.link = links_[i];
    s.busy_s = busy_[i];
    s.utilization = horizon_s > 0.0 ? busy_[i] / horizon_s : 0.0;
    s.max_queue_wait_s = max_wait_[i];
    s.total_queue_wait_s = total_wait_[i];
    s.messages = messages_[i];
    out.push_back(s);
  }
}

}  // namespace cnpu
