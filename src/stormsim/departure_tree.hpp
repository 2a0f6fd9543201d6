// Winner (tournament) tree over a fixed set of machines: the departure
// queue of the discrete-event engine. Each machine owns one leaf holding its
// next departure key or "absent"; every internal node holds the minimum of
// its two children, so the root is the next departure.
//
// A key is one 128-bit integer: the high 64 bits are the bit pattern of the
// departure time, the low 64 bits are `seq << bits | machine`. Departure
// times are finite, non-negative and never -0.0, and such doubles order like
// their bit patterns; seq is unique. Integer order is therefore exactly the
// (time, seq) total order, and the root is a pure function of the
// {machine -> key} map.
//
// An update replays one leaf-to-root path. Each level loads the sibling,
// which is off the dependency chain, and keeps the smaller key with a
// conditional move — no data-dependent branch, unlike a heap sift.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"

namespace stormtune::sim {

class DepartureTree {
 public:
  /// Widest machine index a key carries. Sixteen bits leave seq at least
  /// 48 bits: 2.8e14 departures in one run.
  static constexpr unsigned kMaxMachineBits = 16;
  static constexpr std::size_t kMaxMachines = std::size_t{1}
                                              << kMaxMachineBits;

  explicit DepartureTree(std::size_t machines = 0) { reset(machines); }

  /// Size the tree for `machines` leaves, every one absent. Keeps the node
  /// array's capacity, so a reused tree does not allocate.
  void reset(std::size_t machines) {
    STORMTUNE_REQUIRE(machines <= kMaxMachines,
                      "DepartureTree: more machines than the key can index");
    machines_ = machines;
    leaves_ = std::bit_ceil(std::max<std::size_t>(machines, 1));
    bits_ = static_cast<unsigned>(std::countr_zero(leaves_));
    nodes_.assign(2 * leaves_, kAbsent);
  }

  /// One past the largest seq a key can carry at this machine count.
  std::uint64_t seq_limit() const { return std::uint64_t{1} << (64 - bits_); }

  bool empty() const { return nodes_[1] == kAbsent; }
  bool contains(std::size_t m) const {
    STORMTUNE_DCHECK(m < machines_, "DepartureTree: machine out of range");
    return nodes_[leaves_ + m] != kAbsent;
  }

  /// Insert machine `m`'s departure at (time, seq), or replace it.
  void set(std::size_t m, double time, std::uint64_t seq) {
    STORMTUNE_DCHECK(m < machines_, "DepartureTree::set: machine out of range");
    STORMTUNE_DCHECK(std::isfinite(time) && time >= 0.0 && !std::signbit(time),
                     "DepartureTree::set: time must be finite, >= 0, not -0");
    STORMTUNE_DCHECK(seq < seq_limit(), "DepartureTree::set: seq overflows");
    replay(m, pack(m, time, seq));
  }
  /// Remove machine `m`'s departure; a no-op when it has none.
  void erase(std::size_t m) {
    STORMTUNE_DCHECK(m < machines_,
                     "DepartureTree::erase: machine out of range");
    replay(m, kAbsent);
  }

  /// The earliest departure. Undefined on an empty tree.
  double top_time() const {
    STORMTUNE_DCHECK(!empty(), "DepartureTree::top_time on empty tree");
    return std::bit_cast<double>(static_cast<std::uint64_t>(nodes_[1] >> 64));
  }
  std::uint64_t top_seq() const {
    STORMTUNE_DCHECK(!empty(), "DepartureTree::top_seq on empty tree");
    return static_cast<std::uint64_t>(nodes_[1]) >> bits_;
  }
  std::size_t top_machine() const {
    STORMTUNE_DCHECK(!empty(), "DepartureTree::top_machine on empty tree");
    return static_cast<std::size_t>(static_cast<std::uint64_t>(nodes_[1]) &
                                    (leaves_ - 1));
  }

#ifdef STORMTUNE_CHECKED
  /// Full O(n) structural verification, checked builds only: every internal
  /// node equals the minimum of its children, every present leaf carries
  /// its own machine index, and the padding leaves past the machine count
  /// are absent. Throws InvariantError on violation.
  void checked_verify() const {
    STORMTUNE_INVARIANT(nodes_.size() == 2 * leaves_,
                        "DepartureTree: node array does not match leaf count");
    for (std::size_t i = 1; i < leaves_; ++i) {
      const Key l = nodes_[2 * i];
      const Key r = nodes_[2 * i + 1];
      STORMTUNE_INVARIANT(nodes_[i] == (r < l ? r : l),
                          "DepartureTree: node is not the min of its children");
    }
    for (std::size_t m = 0; m < leaves_; ++m) {
      const Key leaf = nodes_[leaves_ + m];
      if (leaf == kAbsent) continue;
      STORMTUNE_INVARIANT(m < machines_,
                          "DepartureTree: key past the machine count");
      STORMTUNE_INVARIANT(
          (static_cast<std::uint64_t>(leaf) & (leaves_ - 1)) == m,
          "DepartureTree: leaf carries another machine's index");
    }
  }

  /// Test hook: flip the low bit of node `i` without replaying its path,
  /// the damage checked_verify() must catch. Checked builds only.
  void checked_corrupt_node_for_test(std::size_t i) {
    STORMTUNE_REQUIRE(i >= 1 && i < nodes_.size(),
                      "checked_corrupt_node_for_test: node out of range");
    nodes_[i] ^= 1;
  }

  /// Test hook: write a key into any leaf, padding leaves included, and
  /// replay its path so only the leaf itself is wrong. Checked builds only.
  void checked_set_leaf_for_test(std::size_t leaf, double time,
                                 std::uint64_t seq) {
    STORMTUNE_REQUIRE(leaf < leaves_,
                      "checked_set_leaf_for_test: leaf out of range");
    replay(leaf, pack(leaf, time, seq));
  }
#endif

 private:
  using Key = unsigned __int128;
  static constexpr Key kAbsent = ~Key{0};  // time bits of a NaN: never a key

  Key pack(std::size_t m, double time, std::uint64_t seq) const {
    return Key{std::bit_cast<std::uint64_t>(time)} << 64 |
           Key{seq << bits_ | static_cast<std::uint64_t>(m)};
  }

  void replay(std::size_t m, Key key) {
    std::size_t i = leaves_ + m;
    nodes_[i] = key;
    for (; i > 1; i >>= 1) {
      const Key sibling = nodes_[i ^ 1];
      key = sibling < key ? sibling : key;
      nodes_[i >> 1] = key;
    }
  }

  std::size_t machines_ = 0;
  std::size_t leaves_ = 1;  // power of two >= machines_
  unsigned bits_ = 0;       // log2(leaves_): width of the machine field
  std::vector<Key> nodes_;  // [1] is the root, leaves at [leaves_, 2 leaves_)
};

}  // namespace stormtune::sim
