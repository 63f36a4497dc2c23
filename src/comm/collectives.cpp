#include "comm/collectives.hpp"

#include <algorithm>
#include <cstring>

#include "device/hazard.hpp"

namespace hplx::comm {

namespace {

// Internal collective tag space (offset past user tags by Communicator).
constexpr int kTagBarrier = 0;
constexpr int kTagBcast = 1;
constexpr int kTagAllreduce = 2;
constexpr int kTagScatterv = 3;
constexpr int kTagAllgatherv = 4;

/// RAII registration of one collective call with the fabric's verifier
/// (single pointer test when checking is off). Nested implementations —
/// Ring2Mod delegating to Ring1Mod — register only their outermost call,
/// and a wrapper that only forwards (allgatherv_bytes) registers none. On
/// the outermost call the payload envelope is also declared to the rank's
/// device::HazardTracker (the buffer-hazard bridge): a collective touching
/// a buffer that unfenced in-flight device work still uses is reported
/// even when the caller forgot its own HostAccessScope. `label` must have
/// static storage duration.
class CollGuard {
 public:
  CollGuard(Communicator& comm, Verifier::Coll c, int root, std::size_t bytes,
            std::uint64_t count_sum, const char* label,
            const void* buf = nullptr, std::size_t span_bytes = 0,
            bool write = false)
      : v_(comm.fabric().verifier()), rank_(comm.rank()) {
    if (v_ == nullptr) return;
    if (v_->begin_collective(rank_, c, root, bytes, count_sum) &&
        buf != nullptr && span_bytes > 0) {
      if (device::HazardTracker* hz = v_->hazard_tracker(rank_)) {
        const device::MemSpan span{buf, span_bytes, write};
        hz->on_host_access(label, &span, 1);
      }
    }
  }
  ~CollGuard() {
    if (v_ != nullptr) v_->end_collective(rank_);
  }
  CollGuard(const CollGuard&) = delete;
  CollGuard& operator=(const CollGuard&) = delete;

 private:
  Verifier* v_;
  int rank_;
};

std::uint64_t counts_sum(const std::vector<std::size_t>& counts) {
  std::uint64_t total = 0;
  for (std::size_t c : counts) total += c;
  return total;
}

/// Chunk boundaries for splitting `bytes` into `parts` nearly equal pieces.
struct Chunking {
  std::vector<std::size_t> offset;  // parts+1 entries
  explicit Chunking(std::size_t bytes, std::size_t parts) {
    offset.resize(parts + 1);
    const std::size_t base = bytes / parts;
    const std::size_t rem = bytes % parts;
    offset[0] = 0;
    for (std::size_t i = 0; i < parts; ++i)
      offset[i + 1] = offset[i] + base + (i < rem ? 1 : 0);
  }
  std::size_t size(std::size_t i) const { return offset[i + 1] - offset[i]; }
};

/// Pass the full buffer down a chain: order[0] -> order[1] -> ... Each
/// member forwards to its successor. order[0] must already hold the data.
void chain_forward(Communicator& comm, void* buf, std::size_t bytes,
                   const std::vector<int>& order) {
  const int me = comm.rank();
  const int n = static_cast<int>(order.size());
  for (int i = 0; i < n; ++i) {
    if (order[static_cast<std::size_t>(i)] != me) continue;
    if (i > 0) {
      // Relay: take ownership of the pooled payload, copy it into buf
      // once, and forward the same storage to the successor. The old
      // recv-then-send pair cost an allocation plus two copies here.
      device::Lease pb = comm.recv_internal_buffer(
          bytes, order[static_cast<std::size_t>(i - 1)], kTagBcast);
      if (bytes > 0) std::memcpy(buf, pb.data(), bytes);
      if (i + 1 < n)
        comm.send_internal_buffer(std::move(pb),
                                  order[static_cast<std::size_t>(i + 1)],
                                  kTagBcast);
    } else if (i + 1 < n) {
      comm.send_internal(buf, bytes, order[static_cast<std::size_t>(i + 1)],
                         kTagBcast);
    }
    return;
  }
}

/// Bandwidth-optimal broadcast over the listed ranks (order[0] = source):
/// the source scatters equal chunks, then a ring allgather circulates them.
/// Total bytes on the wire per rank ≈ 2·bytes·(n-1)/n, the classic "long
/// message" algorithm HPL calls blong.
void long_bcast(Communicator& comm, void* buf, std::size_t bytes,
                const std::vector<int>& order) {
  const int n = static_cast<int>(order.size());
  if (n <= 1) return;
  if (bytes < static_cast<std::size_t>(n)) {
    chain_forward(comm, buf, bytes, order);  // too small to chunk
    return;
  }
  const int me = comm.rank();
  int vr = -1;
  for (int i = 0; i < n; ++i)
    if (order[static_cast<std::size_t>(i)] == me) vr = i;
  if (vr < 0) return;  // not a participant

  std::byte* base = static_cast<std::byte*>(buf);
  const Chunking ch(bytes, static_cast<std::size_t>(n));

  // Scatter: source keeps chunk 0 and sends chunk i to virtual rank i.
  if (vr == 0) {
    for (int i = 1; i < n; ++i)
      comm.send_internal(base + ch.offset[static_cast<std::size_t>(i)],
                         ch.size(static_cast<std::size_t>(i)),
                         order[static_cast<std::size_t>(i)], kTagBcast);
  } else {
    comm.recv_internal(base + ch.offset[static_cast<std::size_t>(vr)],
                       ch.size(static_cast<std::size_t>(vr)),
                       order[0], kTagBcast);
  }

  // Ring allgather: at step s, vr sends chunk (vr - s) and receives chunk
  // (vr - s - 1), both mod n.
  const int next = order[static_cast<std::size_t>((vr + 1) % n)];
  const int prev = order[static_cast<std::size_t>((vr - 1 + n) % n)];
  for (int s = 0; s < n - 1; ++s) {
    const int send_chunk = ((vr - s) % n + n) % n;
    const int recv_chunk = ((vr - s - 1) % n + n) % n;
    comm.send_internal(base + ch.offset[static_cast<std::size_t>(send_chunk)],
                       ch.size(static_cast<std::size_t>(send_chunk)), next,
                       kTagBcast);
    comm.recv_internal(base + ch.offset[static_cast<std::size_t>(recv_chunk)],
                       ch.size(static_cast<std::size_t>(recv_chunk)), prev,
                       kTagBcast);
  }
}

void binomial_bcast(Communicator& comm, void* buf, std::size_t bytes,
                    int root) {
  const int n = comm.size();
  const int vr = (comm.rank() - root + n) % n;

  // Receive from the parent, then relay to children at increasing strides.
  int mask = 1;
  device::Lease pb;
  bool have_pb = false;
  while (mask < n) {
    if (vr & mask) {
      const int src = (vr - mask + root) % n;
      pb = comm.recv_internal_buffer(bytes, src, kTagBcast);
      if (bytes > 0) std::memcpy(buf, pb.data(), bytes);
      have_pb = true;
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < n) {
      const int dst = (vr + mask + root) % n;
      // Once vr+mask < n holds it holds for every smaller mask too, so the
      // mask == 1 send is always the last — forward the pooled payload
      // itself there instead of copying it again.
      if (have_pb && mask == 1)
        comm.send_internal_buffer(std::move(pb), dst, kTagBcast);
      else
        comm.send_internal(buf, bytes, dst, kTagBcast);
    }
    mask >>= 1;
  }
}

std::vector<int> virtual_order(int n, int root, const std::vector<int>& vrs) {
  std::vector<int> order;
  order.reserve(vrs.size());
  for (int vr : vrs) order.push_back((root + vr) % n);
  return order;
}

}  // namespace

const char* to_string(BcastAlgo algo) {
  switch (algo) {
    case BcastAlgo::Binomial: return "binomial";
    case BcastAlgo::Ring1: return "1ring";
    case BcastAlgo::Ring1Mod: return "1ringM";
    case BcastAlgo::Ring2: return "2ring";
    case BcastAlgo::Ring2Mod: return "2ringM";
    case BcastAlgo::Long: return "blong";
    case BcastAlgo::LongMod: return "blonM";
  }
  return "?";
}

void barrier(Communicator& comm) {
  CollGuard guard(comm, Verifier::Coll::Barrier, -1, 0, 0, "comm.barrier");
  // Dissemination barrier: log2(n) rounds, each rank signals rank+2^k.
  const int n = comm.size();
  const int me = comm.rank();
  char token = 0;
  for (int k = 1; k < n; k <<= 1) {
    const int dst = (me + k) % n;
    const int src = (me - k % n + n) % n;
    comm.send_internal(&token, 1, dst, kTagBarrier);
    comm.recv_internal(&token, 1, src, kTagBarrier);
  }
}

void bcast_bytes(Communicator& comm, void* buf, std::size_t bytes, int root,
                 BcastAlgo algo) {
  const int n = comm.size();
  HPLX_CHECK(root >= 0 && root < n);
  if (n == 1) return;
  const int me = comm.rank();
  CollGuard guard(comm, Verifier::Coll::Bcast, root, bytes, bytes,
                  "comm.bcast", buf, bytes, /*write=*/me != root);

  auto in_vrange = [&](int lo, int hi) {  // is my virtual rank in [lo, hi]?
    const int vr = (me - root + n) % n;
    return vr >= lo && vr <= hi;
  };
  (void)in_vrange;

  switch (algo) {
    case BcastAlgo::Binomial:
      binomial_bcast(comm, buf, bytes, root);
      return;

    case BcastAlgo::Ring1: {
      std::vector<int> vrs(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) vrs[static_cast<std::size_t>(i)] = i;
      chain_forward(comm, buf, bytes, virtual_order(n, root, vrs));
      return;
    }

    case BcastAlgo::Ring1Mod: {
      if (n == 2) {
        chain_forward(comm, buf, bytes, virtual_order(n, root, {0, 1}));
        return;
      }
      // Serve the look-ahead neighbour (vr 1) with a dedicated full-size
      // message, then ring through vr 2..n-1.
      if (me == root) {
        comm.send_internal(buf, bytes, (root + 1) % n, kTagBcast);
      } else if ((me - root + n) % n == 1) {
        comm.recv_internal(buf, bytes, root, kTagBcast);
      }
      std::vector<int> vrs;
      vrs.push_back(0);
      for (int i = 2; i < n; ++i) vrs.push_back(i);
      chain_forward(comm, buf, bytes, virtual_order(n, root, vrs));
      return;
    }

    case BcastAlgo::Ring2: {
      if (n <= 3) {
        std::vector<int> vrs(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) vrs[static_cast<std::size_t>(i)] = i;
        chain_forward(comm, buf, bytes, virtual_order(n, root, vrs));
        return;
      }
      // Two rings: vr 1..h and vr h+1..n-1, both fed by the root.
      const int h = (n - 1 + 1) / 2;  // size of first ring
      std::vector<int> ring_a{0}, ring_b{0};
      for (int i = 1; i <= h; ++i) ring_a.push_back(i);
      for (int i = h + 1; i < n; ++i) ring_b.push_back(i);
      const int vr = (me - root + n) % n;
      if (vr == 0) {
        chain_forward(comm, buf, bytes, virtual_order(n, root, ring_a));
        chain_forward(comm, buf, bytes, virtual_order(n, root, ring_b));
      } else if (vr <= h) {
        chain_forward(comm, buf, bytes, virtual_order(n, root, ring_a));
      } else {
        chain_forward(comm, buf, bytes, virtual_order(n, root, ring_b));
      }
      return;
    }

    case BcastAlgo::Ring2Mod: {
      if (n <= 3) {
        bcast_bytes(comm, buf, bytes, root, BcastAlgo::Ring1Mod);
        return;
      }
      if (me == root) {
        comm.send_internal(buf, bytes, (root + 1) % n, kTagBcast);
      } else if ((me - root + n) % n == 1) {
        comm.recv_internal(buf, bytes, root, kTagBcast);
      }
      // Two rings over vr {2..n-1}.
      const int rest = n - 2;
      const int h = (rest + 1) / 2;
      std::vector<int> ring_a{0}, ring_b{0};
      for (int i = 2; i < 2 + h; ++i) ring_a.push_back(i);
      for (int i = 2 + h; i < n; ++i) ring_b.push_back(i);
      const int vr = (me - root + n) % n;
      if (vr == 0) {
        chain_forward(comm, buf, bytes, virtual_order(n, root, ring_a));
        chain_forward(comm, buf, bytes, virtual_order(n, root, ring_b));
      } else if (vr >= 2 && vr < 2 + h) {
        chain_forward(comm, buf, bytes, virtual_order(n, root, ring_a));
      } else if (vr >= 2 + h) {
        chain_forward(comm, buf, bytes, virtual_order(n, root, ring_b));
      }
      return;
    }

    case BcastAlgo::Long: {
      std::vector<int> vrs(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) vrs[static_cast<std::size_t>(i)] = i;
      long_bcast(comm, buf, bytes, virtual_order(n, root, vrs));
      return;
    }

    case BcastAlgo::LongMod: {
      if (n == 2) {
        chain_forward(comm, buf, bytes, virtual_order(n, root, {0, 1}));
        return;
      }
      if (me == root) {
        comm.send_internal(buf, bytes, (root + 1) % n, kTagBcast);
      } else if ((me - root + n) % n == 1) {
        comm.recv_internal(buf, bytes, root, kTagBcast);
      }
      std::vector<int> vrs;
      vrs.push_back(0);
      for (int i = 2; i < n; ++i) vrs.push_back(i);
      long_bcast(comm, buf, bytes, virtual_order(n, root, vrs));
      return;
    }
  }
}

void bcast_two_level(Communicator& comm, void* buf, std::size_t bytes,
                     int root, int ranks_per_node) {
  const int n = comm.size();
  HPLX_CHECK(root >= 0 && root < n);
  HPLX_CHECK(ranks_per_node >= 1);
  if (n == 1) return;
  const int me = comm.rank();
  CollGuard guard(comm, Verifier::Coll::Bcast, root, bytes, bytes,
                  "comm.bcast2l", buf, bytes, /*write=*/me != root);
  const int my_node = me / ranks_per_node;
  const int root_node = root / ranks_per_node;
  const int nodes = (n + ranks_per_node - 1) / ranks_per_node;

  // Level 1: root feeds every remote node's leader directly. (A binomial
  // tree over leaders would cut the root's fan-out further; linear keeps
  // the example honest about what it optimizes — message COUNT crossing
  // the inter-node fabric.)
  auto leader_of = [&](int node) { return node * ranks_per_node; };
  const bool is_leader = me == leader_of(my_node) || me == root;
  if (me == root) {
    for (int node = 0; node < nodes; ++node) {
      if (node == root_node) continue;
      comm.send_internal(buf, bytes, leader_of(node), kTagBcast);
    }
  } else if (me == leader_of(my_node) && my_node != root_node) {
    comm.recv_internal(buf, bytes, root, kTagBcast);
  }

  // Level 2: ring within each node, starting at the node's data holder
  // (the leader, or the root within its own node).
  const int start = my_node == root_node ? root : leader_of(my_node);
  const int node_lo = leader_of(my_node);
  const int node_hi = std::min(n, node_lo + ranks_per_node);
  std::vector<int> order;
  order.push_back(start);
  for (int r = node_lo; r < node_hi; ++r)
    if (r != start) order.push_back(r);
  (void)is_leader;
  chain_forward(comm, buf, bytes, order);
}

void allreduce_bytes(
    Communicator& comm, void* buf, std::size_t bytes,
    const std::function<void(void* inout, const void* in)>& combine) {
  const int n = comm.size();
  if (n == 1) return;
  CollGuard guard(comm, Verifier::Coll::Allreduce, -1, bytes, bytes,
                  "comm.allreduce", buf, bytes, /*write=*/true);
  const int vr = comm.rank();  // root is rank 0 for the reduce tree

  // Binomial reduce to rank 0. Scratch for partner contributions comes
  // from the fabric's pool instead of a fresh heap allocation per call —
  // the pivot allreduce runs once per column, so this is hot.
  device::Lease incoming;
  int mask = 1;
  while (mask < n) {
    if (vr & mask) {
      comm.send_internal(buf, bytes, vr - mask, kTagAllreduce);
      break;
    }
    if (vr + mask < n) {
      if (incoming.size() < bytes)
        incoming = device::Lease(comm.fabric().allocator(), bytes);
      comm.recv_internal(incoming.data(), bytes, vr + mask, kTagAllreduce);
      combine(buf, incoming.data());
    }
    mask <<= 1;
  }

  // Binomial broadcast of the result from rank 0: receive from the parent
  // (at the lowest set bit of vr), then relay downwards.
  int recv_mask = 1;
  while (recv_mask < n) {
    if (vr & recv_mask) {
      comm.recv_internal(buf, bytes, vr - recv_mask, kTagAllreduce);
      break;
    }
    recv_mask <<= 1;
  }
  recv_mask >>= 1;
  while (recv_mask > 0) {
    if (vr + recv_mask < n) {
      comm.send_internal(buf, bytes, vr + recv_mask, kTagAllreduce);
    }
    recv_mask >>= 1;
  }
}

namespace {

/// Largest chunk of a `seg_bytes` segment: a multiple of `grain`, at most
/// `chunk_bytes` (rounded down to a grain multiple, at least one grain).
/// chunk_bytes == 0 or grain >= seg_bytes yields the whole segment.
std::size_t chunk_step(std::size_t seg_bytes, std::size_t chunk_bytes,
                       std::size_t grain) {
  if (grain == 0) grain = 1;
  const std::size_t step = chunk_bytes == 0 ? seg_bytes : chunk_bytes;
  return std::max(grain, step / grain * grain);
}

}  // namespace

void scatterv_bytes(Communicator& comm, const void* sendbuf,
                    const std::vector<std::size_t>& counts, void* recvbuf,
                    int root, std::size_t chunk_bytes, std::size_t grain) {
  const int n = comm.size();
  HPLX_CHECK(root >= 0 && root < n);
  HPLX_CHECK(static_cast<int>(counts.size()) == n);
  const int me = comm.rank();
  const std::uint64_t total = counts_sum(counts);
  CollGuard guard(comm, Verifier::Coll::Scatterv, root,
                  static_cast<std::size_t>(total), total, "comm.scatterv",
                  me == root ? sendbuf : recvbuf,
                  me == root ? static_cast<std::size_t>(total)
                             : counts[static_cast<std::size_t>(me)],
                  /*write=*/me != root);

  // Both ends derive the same message boundaries from counts[rank]; an
  // empty segment still travels as one zero-byte message.
  if (me == root) {
    const std::byte* base = static_cast<const std::byte*>(sendbuf);
    std::size_t offset = 0;
    for (int i = 0; i < n; ++i) {
      const std::size_t c = counts[static_cast<std::size_t>(i)];
      if (i == root) {
        if (c > 0) std::memcpy(recvbuf, base + offset, c);
      } else {
        const std::size_t step = chunk_step(c, chunk_bytes, grain);
        std::size_t off = 0;
        do {
          const std::size_t len = std::min(step, c - off);
          comm.send_internal(base + offset + off, len, i, kTagScatterv);
          off += len;
        } while (off < c);
      }
      offset += c;
    }
  } else {
    std::byte* dst = static_cast<std::byte*>(recvbuf);
    const std::size_t c = counts[static_cast<std::size_t>(me)];
    const std::size_t step = chunk_step(c, chunk_bytes, grain);
    std::size_t off = 0;
    do {
      const std::size_t len = std::min(step, c - off);
      comm.recv_internal(dst + off, len, root, kTagScatterv);
      off += len;
    } while (off < c);
  }
}

namespace {

/// Packed-rank-order check: recursive doubling sends contiguous runs of
/// segments as single messages, which needs displs[i+1] == displs[i] +
/// counts[i].
bool displs_packed(const std::vector<std::size_t>& counts,
                   const std::vector<std::size_t>& displs) {
  for (std::size_t i = 0; i + 1 < counts.size(); ++i)
    if (displs[i + 1] != displs[i] + counts[i]) return false;
  return true;
}

/// Binary exchange: at round k each rank holds the 2^k consecutive
/// segments of its aligned group and swaps them with its partner's. Needs
/// a power-of-two size and packed displs; returns false, having sent
/// nothing, when either is missing.
bool recursive_doubling(Communicator& comm,
                        const std::vector<std::size_t>& counts,
                        const std::vector<std::size_t>& displs,
                        std::byte* base) {
  const int n = comm.size();
  if ((n & (n - 1)) != 0 || !displs_packed(counts, displs)) return false;
  const int me = comm.rank();
  for (int mask = 1; mask < n; mask <<= 1) {
    const int partner = me ^ mask;
    const int my_start = me & ~(mask - 1);
    const int partner_start = partner & ~(mask - 1);
    auto run_bytes = [&](int start) {
      std::size_t total = 0;
      for (int i = start; i < start + mask; ++i)
        total += counts[static_cast<std::size_t>(i)];
      return total;
    };
    comm.send_internal(base + displs[static_cast<std::size_t>(my_start)],
                       run_bytes(my_start), partner, kTagAllgatherv);
    comm.recv_internal(base + displs[static_cast<std::size_t>(partner_start)],
                       run_bytes(partner_start), partner, kTagAllgatherv);
  }
  return true;
}

}  // namespace

void allgatherv_bytes(Communicator& comm, const void* sendbuf,
                      const std::vector<std::size_t>& counts,
                      const std::vector<std::size_t>& displs, void* recvbuf,
                      AllgatherAlgo algo) {
  allgatherv_chunked(comm, sendbuf, counts, displs, recvbuf, 0,
                     std::vector<std::size_t>(counts.size(), 0), {}, algo);
}

namespace {

/// Chunk boundaries for one segment, chunk_step() apart (the last chunk
/// takes the remainder).
std::vector<std::size_t> chunk_bounds(std::size_t seg_bytes,
                                      std::size_t chunk_bytes,
                                      std::size_t grain) {
  std::vector<std::size_t> bounds{0};
  if (seg_bytes == 0) return bounds;
  const std::size_t step = chunk_step(seg_bytes, chunk_bytes, grain);
  for (std::size_t off = step; off < seg_bytes; off += step)
    bounds.push_back(off);
  bounds.push_back(seg_bytes);
  return bounds;
}

}  // namespace

void allgatherv_chunked(
    Communicator& comm, const void* sendbuf,
    const std::vector<std::size_t>& counts,
    const std::vector<std::size_t>& displs, void* recvbuf,
    std::size_t chunk_bytes, const std::vector<std::size_t>& grains,
    const std::function<void(const ChunkDelivery&)>& on_chunk,
    AllgatherAlgo algo) {
  const int n = comm.size();
  HPLX_CHECK(static_cast<int>(counts.size()) == n);
  HPLX_CHECK(static_cast<int>(displs.size()) == n);
  HPLX_CHECK(static_cast<int>(grains.size()) == n);
  const int me = comm.rank();
  std::byte* base = static_cast<std::byte*>(recvbuf);
  std::size_t extent = 0;
  for (int i = 0; i < n; ++i)
    extent = std::max(extent, displs[static_cast<std::size_t>(i)] +
                                  counts[static_cast<std::size_t>(i)]);
  const std::uint64_t total = counts_sum(counts);
  // One descriptor for every allgatherv: chunking and the schedule are
  // implementation details.
  CollGuard guard(comm, Verifier::Coll::Allgatherv, -1,
                  static_cast<std::size_t>(total), total, "comm.allgatherv",
                  recvbuf, extent, /*write=*/true);

  // Own contribution lands (and is delivered) first — no wire traffic.
  const std::size_t mine = counts[static_cast<std::size_t>(me)];
  if (mine > 0 && base + displs[static_cast<std::size_t>(me)] != sendbuf)
    std::memcpy(base + displs[static_cast<std::size_t>(me)], sendbuf, mine);
  if (mine > 0 && on_chunk)
    on_chunk({me, displs[static_cast<std::size_t>(me)], mine});
  if (n == 1) return;

  if (algo == AllgatherAlgo::RecursiveDoubling &&
      recursive_doubling(comm, counts, displs, base)) {
    // The exchange moves runs of segments, so a partially landed run may
    // belong to several ranks — not worth untangling here. Deliver whole
    // remote segments once it is done.
    for (int r = 0; r < n; ++r) {
      if (r == me) continue;
      const std::size_t c = counts[static_cast<std::size_t>(r)];
      if (c > 0 && on_chunk) on_chunk({r, displs[static_cast<std::size_t>(r)], c});
    }
    return;
  }

  // Chunked ring: the classic step s forwards segment (me - s) mod n and
  // receives segment (me - s - 1) mod n; here both halves are split into
  // grain-aligned chunks and interleaved, so the callback fires per chunk
  // while later chunks (and later ring steps) are still on the wire.
  // Sends are eager-buffered by the fabric, so a full chunk send never
  // blocks on the partner's matching receive.
  const int next = (me + 1) % n;
  const int prev = (me - 1 + n) % n;
  for (int s = 0; s < n - 1; ++s) {
    const std::size_t send_seg =
        static_cast<std::size_t>(((me - s) % n + n) % n);
    const std::size_t recv_seg =
        static_cast<std::size_t>(((me - s - 1) % n + n) % n);
    const auto sb = chunk_bounds(counts[send_seg], chunk_bytes, grains[send_seg]);
    const auto rb = chunk_bounds(counts[recv_seg], chunk_bytes, grains[recv_seg]);
    const std::size_t rounds = std::max(sb.size(), rb.size()) - 1;
    for (std::size_t c = 0; c < rounds; ++c) {
      if (c + 1 < sb.size()) {
        comm.send_internal(base + displs[send_seg] + sb[c], sb[c + 1] - sb[c],
                           next, kTagAllgatherv);
      }
      if (c + 1 < rb.size()) {
        const std::size_t off = displs[recv_seg] + rb[c];
        const std::size_t len = rb[c + 1] - rb[c];
        comm.recv_internal(base + off, len, prev, kTagAllgatherv);
        if (on_chunk) on_chunk({static_cast<int>(recv_seg), off, len});
      }
    }
  }
}

}  // namespace hplx::comm
