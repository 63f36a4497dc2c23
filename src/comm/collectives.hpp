#pragma once
/// \file collectives.hpp
/// \brief Collective operations over a Communicator, implemented strictly on
/// top of tagged point-to-point messages.
///
/// HPL's performance character depends on *which* collective algorithm runs
/// (§II: "the efficiency of the broadcast algorithm used"), so the panel
/// broadcast family from HPL is reproduced here: 1-ring, modified 1-ring,
/// 2-ring, modified 2-ring, and the bandwidth-reducing "long" variants.
/// The modified variants deliver the full panel to the root's right
/// neighbour first — that neighbour owns the next panel column and needs
/// the data earliest for the look-ahead (§III).
///
/// All collectives must be invoked by every rank of the communicator, in
/// the same order (MPI semantics).

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

#include "comm/communicator.hpp"

namespace hplx::comm {

/// Broadcast algorithm selector (mirrors HPL's BCAST input parameter).
enum class BcastAlgo {
  Binomial,   ///< binomial tree (latency-optimal, small messages)
  Ring1,      ///< one ring pass through the row
  Ring1Mod,   ///< right neighbour served first, then a ring over the rest
  Ring2,      ///< two half-length rings
  Ring2Mod,   ///< right neighbour first, then two rings
  Long,       ///< scatter + ring allgather (bandwidth-optimal)
  LongMod,    ///< right neighbour first, then Long over the rest
};

const char* to_string(BcastAlgo algo);

/// Topology-aware two-level broadcast — the paper's §V direction
/// ("specialized communication algorithms, which optimize for the
/// system's network topology"). Ranks are grouped into nodes of
/// `ranks_per_node` consecutive ranks; the root sends once per remote
/// node to that node's leader (its lowest rank), then each node finishes
/// with an intra-node ring. Inter-node traffic drops from O(size) to
/// O(nodes) full-payload messages.
void bcast_two_level(Communicator& comm, void* buf, std::size_t bytes,
                     int root, int ranks_per_node);

/// Reduction operator for typed allreduce.
enum class ReduceOp { Sum, Max, Min };

// ---------------------------------------------------------------- barrier
void barrier(Communicator& comm);

// ---------------------------------------------------------------- bcast
void bcast_bytes(Communicator& comm, void* buf, std::size_t bytes, int root,
                 BcastAlgo algo = BcastAlgo::Binomial);

template <typename T>
void bcast(Communicator& comm, T* buf, std::size_t count, int root,
           BcastAlgo algo = BcastAlgo::Binomial) {
  static_assert(std::is_trivially_copyable_v<T>);
  bcast_bytes(comm, buf, count * sizeof(T), root, algo);
}

// -------------------------------------------------------------- allreduce
/// In-place allreduce with a caller-supplied associative combine:
/// combine(inout, in) must fold `in` into `inout`. Binomial reduce to rank
/// 0 followed by binomial broadcast. The pivot search in the panel
/// factorization uses this with a max-loc-with-row-payload combine.
void allreduce_bytes(
    Communicator& comm, void* buf, std::size_t bytes,
    const std::function<void(void* inout, const void* in)>& combine);

template <typename T>
void allreduce(Communicator& comm, T* buf, std::size_t count, ReduceOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  allreduce_bytes(comm, buf, count * sizeof(T),
                  [count, op](void* inout, const void* in) {
                    T* a = static_cast<T*>(inout);
                    const T* b = static_cast<const T*>(in);
                    for (std::size_t i = 0; i < count; ++i) {
                      switch (op) {
                        case ReduceOp::Sum: a[i] = a[i] + b[i]; break;
                        case ReduceOp::Max: a[i] = (b[i] > a[i]) ? b[i] : a[i]; break;
                        case ReduceOp::Min: a[i] = (b[i] < a[i]) ? b[i] : a[i]; break;
                      }
                    }
                  });
}

// --------------------------------------------------------------- scatterv
/// Root holds `counts[i]` bytes for each rank i, packed contiguously in
/// rank order in sendbuf; rank i receives its segment into recvbuf
/// (counts[rank] bytes). Linear sends from root, like the row-swap
/// scatter phase (Fig 2c). A nonzero `chunk_bytes` splits every segment
/// into messages of at most that many bytes, rounded down to a multiple
/// of `grain` (at least one grain; grain 0 means byte-granular) — the
/// same rule allgatherv_chunked applies, so one bound caps the message
/// sizes of both row-swap collectives. chunk_bytes 0 sends each segment
/// as one message.
void scatterv_bytes(Communicator& comm, const void* sendbuf,
                    const std::vector<std::size_t>& counts, void* recvbuf,
                    int root, std::size_t chunk_bytes = 0,
                    std::size_t grain = 0);

// ------------------------------------------------------------- allgatherv
/// Allgather algorithm selector (the trade HPL's SWAP input exposes):
/// Ring is bandwidth-optimal (size-1 latency hops); RecursiveDoubling is
/// the binary-exchange pattern (log2 hops, same bytes) and wins when the
/// segments are small. RecursiveDoubling requires displs to be packed in
/// rank order (displs[i+1] = displs[i] + counts[i]); non-power-of-two
/// sizes fall back to Ring.
enum class AllgatherAlgo { Ring, RecursiveDoubling };

/// Each rank contributes counts[rank] bytes (its segment of recvbuf, at
/// offset displs[rank]); on return every rank holds all segments.
/// allgatherv_chunked with chunk 0 and no callback: one message per
/// segment and ring step.
void allgatherv_bytes(Communicator& comm, const void* sendbuf,
                      const std::vector<std::size_t>& counts,
                      const std::vector<std::size_t>& displs, void* recvbuf,
                      AllgatherAlgo algo = AllgatherAlgo::Ring);

/// One landed piece of a chunked allgatherv: `bytes` bytes of rank
/// `rank`'s segment, already stored at recvbuf + `offset` (absolute, in
/// bytes) when the callback fires.
struct ChunkDelivery {
  int rank;            ///< segment owner
  std::size_t offset;  ///< absolute byte offset into recvbuf
  std::size_t bytes;   ///< chunk length
};

/// Progress-driven allgatherv: same contract as allgatherv_bytes, but the
/// wire traffic is split into chunks of at most `chunk_bytes` and
/// `on_chunk` fires as soon as each chunk is resident in recvbuf — while
/// the rest of the collective is still in flight. This is the paper's
/// Fig 2c overlap lever: the receive-side deserialization (device
/// scatters of U) can be enqueued per chunk instead of serializing after
/// the full gather.
///
/// `grains[r]` is the indivisible unit (bytes) of rank r's segment — a
/// wire row or column — so every delivered chunk is a whole number of
/// rows/columns; the effective chunk size is chunk_bytes rounded down to
/// a grain multiple (at least one grain). grain 0 means byte-granular.
/// chunk_bytes == 0 delivers each segment as a single chunk.
///
/// The local segment is delivered first (one callback, no wire traffic).
/// Chunked delivery is implemented for the Ring schedule; RecursiveDoubling
/// exchanges whole runs of segments and then delivers one whole segment
/// per remote rank. Where it does not apply (non-power-of-two size or
/// unpacked displs) the chunked ring runs instead.
void allgatherv_chunked(Communicator& comm, const void* sendbuf,
                        const std::vector<std::size_t>& counts,
                        const std::vector<std::size_t>& displs, void* recvbuf,
                        std::size_t chunk_bytes,
                        const std::vector<std::size_t>& grains,
                        const std::function<void(const ChunkDelivery&)>& on_chunk,
                        AllgatherAlgo algo = AllgatherAlgo::Ring);

}  // namespace hplx::comm
