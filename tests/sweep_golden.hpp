// Golden sweep digests shared by the sweep tests.
//
// A second implementation of a sweep path survives only as a committed
// golden value: the packet-path pins below were computed with the retired
// SparseCountMatrix path (fast_path = false) and agreed with the
// WindowAccumulator path and every intra-window shard count K ∈ {1, 2, 4,
// 8}; the counts-path pins agreed across the same shard counts.  All were
// computed on the grid every caller uses: erdos_renyi(Rng(7), 600, 0.02),
// N_V = 5000, 6 windows, pool of 2, seeds {3, 17, 91} × all six
// quantities.  A digest covers only integers — merged.sorted(),
// max_value and windows — so it is independent of floating-point
// contraction and libm.
#pragma once

#include <array>
#include <cstdint>

#include "palu/graph/generators.hpp"
#include "palu/traffic/quantities.hpp"
#include "palu/traffic/window_pipeline.hpp"

namespace palu::golden {

struct SweepPin {
  std::uint64_t seed;
  traffic::Quantity quantity;
  std::uint64_t digest;
};

/// FNV-1a over the little-endian bytes of every (d, count) pair of
/// merged.sorted(), then max_value, then windows.
inline std::uint64_t sweep_digest(const traffic::WindowSweepResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [d, c] : r.merged.sorted()) {
    mix(d);
    mix(c);
  }
  mix(r.max_value);
  mix(r.windows);
  return h;
}

inline graph::Graph golden_graph() {
  Rng gen_rng(7);
  return graph::erdos_renyi(gen_rng, 600, 0.02);
}

inline constexpr Count kGoldenPackets = 5000;
inline constexpr std::size_t kGoldenWindows = 6;

using traffic::Quantity;

inline constexpr std::array<SweepPin, 18> kPacketPins = {{
    {3, Quantity::kSourcePackets, 0x1e287179a98d619dull},
    {3, Quantity::kSourceFanOut, 0x1c22b71ca4f0fbacull},
    {3, Quantity::kLinkPackets, 0x2b627b3e14b2dfe4ull},
    {3, Quantity::kDestinationFanIn, 0x214ed64cd7b019f7ull},
    {3, Quantity::kDestinationPackets, 0xf8aeebcb1255c1a7ull},
    {3, Quantity::kUndirectedDegree, 0xe61a075f61b8fe1cull},
    {17, Quantity::kSourcePackets, 0x76c2236e678674cbull},
    {17, Quantity::kSourceFanOut, 0xa573e5350844b5eeull},
    {17, Quantity::kLinkPackets, 0x41198dfd9077b36aull},
    {17, Quantity::kDestinationFanIn, 0x558e7dd033313804ull},
    {17, Quantity::kDestinationPackets, 0xc7df8710301c2c54ull},
    {17, Quantity::kUndirectedDegree, 0x754cfad0912be879ull},
    {91, Quantity::kSourcePackets, 0xa75ca45e953cfacfull},
    {91, Quantity::kSourceFanOut, 0xfe6692e9ff516c0full},
    {91, Quantity::kLinkPackets, 0x5092a5fbb7bb82e9ull},
    {91, Quantity::kDestinationFanIn, 0xbcd5581d3d75a9ddull},
    {91, Quantity::kDestinationPackets, 0xe64bf9e5bd6b5cefull},
    {91, Quantity::kUndirectedDegree, 0xb16ed9957edb8071ull},
}};

inline constexpr std::array<SweepPin, 18> kCountsPins = {{
    {3, Quantity::kSourcePackets, 0xcd784a33549bf876ull},
    {3, Quantity::kSourceFanOut, 0x39ffd2c559f3cf41ull},
    {3, Quantity::kLinkPackets, 0xb36c318133c1dc0aull},
    {3, Quantity::kDestinationFanIn, 0xbcfc993e1455a09eull},
    {3, Quantity::kDestinationPackets, 0xd662dc67a12a852bull},
    {3, Quantity::kUndirectedDegree, 0x88a571ba0f978d41ull},
    {17, Quantity::kSourcePackets, 0xdc3f7a547e367c9bull},
    {17, Quantity::kSourceFanOut, 0x7c6d323f3db05598ull},
    {17, Quantity::kLinkPackets, 0xb8f2f44066af8a21ull},
    {17, Quantity::kDestinationFanIn, 0xa407354094e97a89ull},
    {17, Quantity::kDestinationPackets, 0xb876dd68f6b44933ull},
    {17, Quantity::kUndirectedDegree, 0x9ab6dd7993be5e2cull},
    {91, Quantity::kSourcePackets, 0xf2ed292fbf1804a0ull},
    {91, Quantity::kSourceFanOut, 0xb11889de434da6eeull},
    {91, Quantity::kLinkPackets, 0xa18b88e81861b64eull},
    {91, Quantity::kDestinationFanIn, 0x10f3bce9d19adb1eull},
    {91, Quantity::kDestinationPackets, 0xcea4de107865258bull},
    {91, Quantity::kUndirectedDegree, 0x9d7975ce610e2deaull},
}};

}  // namespace palu::golden
