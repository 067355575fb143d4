#include "palu/traffic/window_accumulator.hpp"

#include <algorithm>

#include "palu/common/error.hpp"

namespace palu::traffic {

namespace {
constexpr std::size_t kInitialCapacity = std::size_t{1} << 10;
// The live-slot lists hold 32-bit indices, so tables cap at 2^32 slots.
constexpr std::size_t kMaxCapacity = std::size_t{1} << 32;
// Count-space windows use dense NodeId-indexed marginal arrays only while
// the id range stays within a small factor of the active pair count;
// beyond that (sparse ids) the records replay through the hash tables.
constexpr std::size_t kDenseNodeFactor = 8;
constexpr std::size_t kDenseNodeFloor = 4096;
// Histogram values below this accumulate in a dense value-indexed array;
// rarer larger values (a single pair can carry ~N_V packets) go through a
// small overflow list so the scratch never balloons.
constexpr Count kDenseValueCap = Count{1} << 22;
}  // namespace

WindowAccumulator::WindowAccumulator() {
  cells_.resize(kInitialCapacity);
  cell_epoch_.assign(kInitialCapacity, 0);
  cell_mask_ = kInitialCapacity - 1;
  cell_grow_at_ = kInitialCapacity - kInitialCapacity / 4;
  nodes_.resize(kInitialCapacity);
  node_epoch_.assign(kInitialCapacity, 0);
  node_mask_ = kInitialCapacity - 1;
  node_grow_at_ = kInitialCapacity - kInitialCapacity / 4;
}

std::uint64_t WindowAccumulator::mix_cell(NodeId src, NodeId dst) noexcept {
  std::uint64_t h = src * 0x9e3779b97f4a7c15ULL;
  h ^= dst + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  // murmur3 finalizer: linear probing needs well-mixed low bits.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

std::uint64_t WindowAccumulator::mix_node(NodeId id) noexcept {
  std::uint64_t h = id + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

void WindowAccumulator::begin_window() {
  live_cells_.clear();
  total_ = 0;
  counts_mode_ = false;
  counts_nnz_ = 0;
  pairs_ = {};
  if (++epoch_ == 0) {
    // The 32-bit stamp wrapped: stamps from 2^32 windows ago could alias
    // the new epoch, so take the rare O(capacity) clear.
    std::fill(cell_epoch_.begin(), cell_epoch_.end(), 0u);
    epoch_ = 1;
  }
}

void WindowAccumulator::add(NodeId src, NodeId dst, Count count) {
  if (count == 0) return;
  if (live_cells_.size() >= cell_grow_at_) grow_cells();
  const std::size_t slot = find_or_insert_cell(src, dst);
  cells_[slot].count += count;
  total_ += count;
}

void WindowAccumulator::add_packets(std::span<const Packet> packets) {
  for (const Packet& p : packets) add(p.src, p.dst);
}

void WindowAccumulator::ingest_counts(std::span<const EdgePacketCounts> pairs) {
  Count total = 0;
  std::size_t nnz = 0;
  NodeId max_id = 0;
  for (const EdgePacketCounts& pc : pairs) {
    total += pc.forward + pc.backward;
    nnz += static_cast<std::size_t>(pc.forward > 0) +
           static_cast<std::size_t>(pc.backward > 0);
    max_id = std::max({max_id, pc.u, pc.v});
  }
  const std::size_t dense_nodes = static_cast<std::size_t>(max_id) + 1;
  if (!pairs.empty() &&
      dense_nodes > kDenseNodeFactor * pairs.size() + kDenseNodeFloor) {
    // Ids too sparse for dense marginals: replay through the hash tables.
    for (const EdgePacketCounts& pc : pairs) {
      add(pc.u, pc.v, pc.forward);
      add(pc.v, pc.u, pc.backward);
    }
    return;
  }
  counts_mode_ = true;
  counts_nnz_ = nnz;
  counts_dense_nodes_ = dense_nodes;
  total_ = total;
  pairs_ = pairs;
  if (node_packets_dense_.size() < dense_nodes) {
    node_packets_dense_.assign(dense_nodes, 0);
    node_fan_dense_.assign(dense_nodes, 0);
  }
}

void WindowAccumulator::export_counts(
    std::vector<EdgePacketCounts>& out) const {
  if (counts_mode_) {
    for (const EdgePacketCounts& pc : pairs_) {
      if (pc.forward + pc.backward == 0) continue;
      out.push_back(pc);
    }
    return;
  }
  // Hash mode: every live cell carries a positive count on one directed
  // link; canonicalize each to lower-endpoint-first (self-pairs keep all
  // packets in `forward`, matching the counts generator's convention).
  for (const std::uint32_t slot : live_cells_) {
    const Cell& c = cells_[slot];
    if (c.src <= c.dst) {
      out.push_back(EdgePacketCounts{c.src, c.dst, c.count, 0});
    } else {
      out.push_back(EdgePacketCounts{c.dst, c.src, 0, c.count});
    }
  }
}

Count WindowAccumulator::at(NodeId src, NodeId dst) const {
  if (counts_mode_) {
    // Cold path (tests, spot checks): one scan over the unique pairs.
    for (const EdgePacketCounts& pc : pairs_) {
      if (pc.u == src && pc.v == dst) return pc.forward;
      if (pc.u == dst && pc.v == src) return pc.backward;
    }
    return 0;
  }
  const std::size_t slot = find_cell(src, dst);
  return slot == kNpos ? 0 : cells_[slot].count;
}

std::size_t WindowAccumulator::find_cell(NodeId src,
                                         NodeId dst) const noexcept {
  std::size_t i = mix_cell(src, dst) & cell_mask_;
  for (;;) {
    if (cell_epoch_[i] != epoch_) return kNpos;
    const Cell& c = cells_[i];
    if (c.src == src && c.dst == dst) return i;
    i = (i + 1) & cell_mask_;
  }
}

std::size_t WindowAccumulator::find_or_insert_cell(NodeId src, NodeId dst) {
  std::size_t i = mix_cell(src, dst) & cell_mask_;
  for (;;) {
    if (cell_epoch_[i] != epoch_) {
      cell_epoch_[i] = epoch_;
      cells_[i] = Cell{src, dst, 0};
      live_cells_.push_back(static_cast<std::uint32_t>(i));
      return i;
    }
    const Cell& c = cells_[i];
    if (c.src == src && c.dst == dst) return i;
    i = (i + 1) & cell_mask_;
  }
}

void WindowAccumulator::grow_cells() {
  const std::size_t new_capacity = (cell_mask_ + 1) * 2;
  PALU_CHECK(new_capacity <= kMaxCapacity,
             "WindowAccumulator: cell table exceeds 2^32 slots");
  std::vector<Cell> live;
  live.reserve(live_cells_.size());
  for (const std::uint32_t slot : live_cells_) live.push_back(cells_[slot]);
  cells_.assign(new_capacity, Cell{});
  cell_epoch_.assign(new_capacity, 0u);
  cell_mask_ = new_capacity - 1;
  cell_grow_at_ = new_capacity - new_capacity / 4;
  epoch_ = 1;
  live_cells_.clear();
  for (const Cell& c : live) {
    const std::size_t slot = find_or_insert_cell(c.src, c.dst);
    cells_[slot].count = c.count;
  }
}

void WindowAccumulator::begin_node_pass() {
  live_nodes_.clear();
  if (++node_pass_ == 0) {
    std::fill(node_epoch_.begin(), node_epoch_.end(), 0u);
    node_pass_ = 1;
  }
}

WindowAccumulator::NodeSlot& WindowAccumulator::node_slot(NodeId id) {
  if (live_nodes_.size() >= node_grow_at_) grow_nodes();
  std::size_t i = mix_node(id) & node_mask_;
  for (;;) {
    if (node_epoch_[i] != node_pass_) {
      node_epoch_[i] = node_pass_;
      nodes_[i] = NodeSlot{id, 0, 0};
      live_nodes_.push_back(static_cast<std::uint32_t>(i));
      return nodes_[i];
    }
    if (nodes_[i].id == id) return nodes_[i];
    i = (i + 1) & node_mask_;
  }
}

void WindowAccumulator::grow_nodes() {
  const std::size_t new_capacity = (node_mask_ + 1) * 2;
  PALU_CHECK(new_capacity <= kMaxCapacity,
             "WindowAccumulator: node table exceeds 2^32 slots");
  std::vector<NodeSlot> live;
  live.reserve(live_nodes_.size());
  for (const std::uint32_t slot : live_nodes_) live.push_back(nodes_[slot]);
  nodes_.assign(new_capacity, NodeSlot{});
  node_epoch_.assign(new_capacity, 0u);
  node_mask_ = new_capacity - 1;
  node_grow_at_ = new_capacity - new_capacity / 4;
  node_pass_ = 1;
  live_nodes_.clear();
  for (const NodeSlot& n : live) node_slot(n.id) = n;
}

stats::DegreeHistogram WindowAccumulator::histogram(Quantity q) {
  if (counts_mode_) return histogram_counts(q);
  stats::DegreeHistogram h;
  switch (q) {
    case Quantity::kLinkPackets:
      for (const std::uint32_t slot : live_cells_) {
        h.add(cells_[slot].count);
      }
      return h;
    case Quantity::kSourcePackets:
    case Quantity::kSourceFanOut: {
      begin_node_pass();
      for (const std::uint32_t slot : live_cells_) {
        const Cell& c = cells_[slot];
        NodeSlot& n = node_slot(c.src);
        n.packets += c.count;
        ++n.fan;
      }
      const bool want_packets = q == Quantity::kSourcePackets;
      for (const std::uint32_t slot : live_nodes_) {
        h.add(want_packets ? nodes_[slot].packets : nodes_[slot].fan);
      }
      return h;
    }
    case Quantity::kDestinationPackets:
    case Quantity::kDestinationFanIn: {
      begin_node_pass();
      for (const std::uint32_t slot : live_cells_) {
        const Cell& c = cells_[slot];
        NodeSlot& n = node_slot(c.dst);
        n.packets += c.count;
        ++n.fan;
      }
      const bool want_packets = q == Quantity::kDestinationPackets;
      for (const std::uint32_t slot : live_nodes_) {
        h.add(want_packets ? nodes_[slot].packets : nodes_[slot].fan);
      }
      return h;
    }
    case Quantity::kUndirectedDegree: {
      // Same pair-owned-once rule as undirected_degree_histogram: the
      // (min, max) orientation credits both endpoints; the mirror cell
      // counts only when its partner is absent.
      begin_node_pass();
      for (const std::uint32_t slot : live_cells_) {
        const Cell& c = cells_[slot];
        if (c.src == c.dst) continue;
        if (c.src > c.dst && find_cell(c.dst, c.src) != kNpos) continue;
        ++node_slot(c.src).fan;
        ++node_slot(c.dst).fan;
      }
      for (const std::uint32_t slot : live_nodes_) {
        h.add(nodes_[slot].fan);
      }
      return h;
    }
  }
  return h;
}

void WindowAccumulator::add_value(Count v) {
  if (v >= kDenseValueCap) {
    overflow_values_.push_back(v);
    return;
  }
  if (v >= value_count_.size()) {
    value_count_.resize(std::max<std::size_t>(v + 1, value_count_.size() * 2),
                        0);
  }
  if (value_count_[v]++ == 0) touched_values_.push_back(v);
}

stats::DegreeHistogram WindowAccumulator::drain_value_scratch() {
  stats::DegreeHistogram h;
  for (const Count v : touched_values_) {
    h.add(v, value_count_[v]);
    value_count_[v] = 0;
  }
  touched_values_.clear();
  for (const Count v : overflow_values_) h.add(v);
  overflow_values_.clear();
  return h;
}

stats::DegreeHistogram WindowAccumulator::emit_dense_nodes(
    bool want_packets) {
  // Linear sweep over the dense id range: every pass increments fan when
  // it credits a node, so fan > 0 marks exactly the touched nodes, and
  // re-zeroing restores the all-zero invariant.  The sweep is a fixed
  // graph-sized cost — cheaper than touched-list bookkeeping once most
  // nodes are active, and N_V-independent either way.
  for (std::size_t id = 0; id < counts_dense_nodes_; ++id) {
    const Count fan = node_fan_dense_[id];
    if (fan == 0) continue;
    add_value(want_packets ? node_packets_dense_[id] : fan);
    node_packets_dense_[id] = 0;
    node_fan_dense_[id] = 0;
  }
  return drain_value_scratch();
}

stats::DegreeHistogram WindowAccumulator::histogram_counts(Quantity q) {
  // Each record expands to the directed cells (u, v, forward) and
  // (v, u, backward); pairs are unique, so — unlike the hash path — no
  // mirror lookups are needed anywhere, including kUndirectedDegree.
  switch (q) {
    case Quantity::kLinkPackets:
      for (const EdgePacketCounts& pc : pairs_) {
        if (pc.forward > 0) add_value(pc.forward);
        if (pc.backward > 0) add_value(pc.backward);
      }
      return drain_value_scratch();
    case Quantity::kSourcePackets:
    case Quantity::kSourceFanOut:
      for (const EdgePacketCounts& pc : pairs_) {
        if (pc.forward > 0) {
          node_packets_dense_[pc.u] += pc.forward;
          ++node_fan_dense_[pc.u];
        }
        if (pc.backward > 0) {
          node_packets_dense_[pc.v] += pc.backward;
          ++node_fan_dense_[pc.v];
        }
      }
      return emit_dense_nodes(q == Quantity::kSourcePackets);
    case Quantity::kDestinationPackets:
    case Quantity::kDestinationFanIn:
      for (const EdgePacketCounts& pc : pairs_) {
        if (pc.forward > 0) {
          node_packets_dense_[pc.v] += pc.forward;
          ++node_fan_dense_[pc.v];
        }
        if (pc.backward > 0) {
          node_packets_dense_[pc.u] += pc.backward;
          ++node_fan_dense_[pc.u];
        }
      }
      return emit_dense_nodes(q == Quantity::kDestinationPackets);
    case Quantity::kUndirectedDegree:
      // Pair-owned-once comes for free: every record IS one unordered
      // pair, so each endpoint is credited exactly once per active pair.
      // Zero rows (the support pairs that drew no packets this window)
      // carry no degree.
      for (const EdgePacketCounts& pc : pairs_) {
        if (pc.u == pc.v || (pc.forward | pc.backward) == 0) continue;
        ++node_fan_dense_[pc.u];
        ++node_fan_dense_[pc.v];
      }
      return emit_dense_nodes(false);
  }
  return stats::DegreeHistogram{};
}

}  // namespace palu::traffic
