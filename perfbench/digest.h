// Digests of simulated outputs: the benchmark's bitwise correctness oracle.
//
// A change meant only to speed the simulator must leave every simulated
// number bit-identical, so the digest hashes each double by its bit
// pattern (every NaN hashes alike: dropped and shed frames carry NaN).
// LinkStats are hashed in canonical link order, so a change that only
// reorders SimResult::link_stats keeps the digest.
#pragma once

#include <cstdint>
#include <string>

#include "sim/event_sim.h"
#include "sim/serving.h"

namespace perfbench {

// FNV-1a over 64-bit words.
class Digest {
 public:
  Digest& add(double v);
  Digest& add(std::int64_t v);
  Digest& add(int v) { return add(static_cast<std::int64_t>(v)); }
  Digest& add(const std::string& s);
  std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t word);
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

enum class Links {
  kCanonical,  // link_stats sorted by link before hashing
  kAsEmitted,  // link_stats in SimResult order (exact engine identity)
  kIgnored,    // link_stats left out (analytical vs contended comparisons)
};

void add_sim_result(Digest& d, const cnpu::SimResult& r,
                    Links links = Links::kCanonical);
std::uint64_t digest_of(const cnpu::SimResult& r,
                        Links links = Links::kCanonical);
std::uint64_t digest_of(const cnpu::LoadSearchResult& r);

// Bit-for-bit equality of every field, link order included, compared
// through the as-emitted digest.
bool bitwise_equal(const cnpu::SimResult& a, const cnpu::SimResult& b);

// 16 lowercase hex digits.
std::string hex(std::uint64_t v);

}  // namespace perfbench
