#include "device/hazard.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace hplx::device {

namespace {

/// Half-open overlap test on byte addresses; empty spans never overlap
/// anything.
inline bool overlaps(const char* b0, const char* e0, const char* b1,
                     const char* e1) {
  return b0 < e1 && b1 < e0;
}

inline const char* bytes_begin(const void* p) {
  return static_cast<const char*>(p);
}

inline void join(HazardClock& into, const HazardClock& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i)
    into[i] = std::max(into[i], from[i]);
}

void format_range(char* out, std::size_t cap, const char* base,
                  std::size_t bytes) {
  std::snprintf(out, cap, "[%p..%p) %zu bytes", (const void*)base,
                (const void*)(base + bytes), bytes);
}

constexpr std::uint64_t kPruneEvery = 64;

}  // namespace

const char* HazardTracker::kind_name(Kind k) {
  switch (k) {
    case Kind::UnorderedStreams: return "unordered-streams";
    case Kind::HostDevice: return "host-vs-device";
    case Kind::UseAfterFree: return "use-after-free";
    case Kind::FreePending: return "free-with-pending-ops";
    case Kind::Leak: return "hbm-leak";
  }
  return "?";
}

HazardTracker::HazardTracker(std::string device_name)
    : name_(std::move(device_name)) {}

int HazardTracker::register_stream(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int id = static_cast<int>(stream_names_.size());
  stream_names_.push_back(name);
  const std::size_t n = stream_names_.size();
  for (auto& c : clocks_) c.resize(n, 0);
  clocks_.emplace_back(n, 0);
  host_clock_.resize(n, 0);
  return id;
}

void HazardTracker::add_violation(Kind kind, const char* a, const char* b,
                                  const std::string& detail) {
  for (auto& r : records_) {
    if (r.kind == static_cast<int>(kind) &&
        std::strncmp(r.op_a, a ? a : "", sizeof(r.op_a) - 1) == 0 &&
        std::strncmp(r.op_b, b ? b : "", sizeof(r.op_b) - 1) == 0) {
      ++r.count;
      return;
    }
  }
  if (records_.size() >= 256) return;  // bounded; counts keep the first 256
  trace::ViolationRecord rec;
  rec.kind = static_cast<int>(kind);
  rec.count = 1;
  rec.set_labels(a, b, detail.c_str());
  records_.push_back(rec);
}

void HazardTracker::prune_dominated() {
  // An entry every stream clock AND the host clock dominate can never
  // conflict with a future op: any later enqueue's clock is a join of
  // those, so the happens-before test always passes. Dropping them keeps
  // the live list at the per-cycle working set (the driver fences every
  // staging buffer once per iteration).
  if (live_.empty()) return;
  HazardClock floor = host_clock_;
  for (const auto& c : clocks_)
    for (std::size_t i = 0; i < floor.size() && i < c.size(); ++i)
      floor[i] = std::min(floor[i], c[i]);
  live_.erase(std::remove_if(live_.begin(), live_.end(),
                             [&](const LiveAccess& e) {
                               return e.seq <=
                                      floor[static_cast<std::size_t>(
                                          e.stream)];
                             }),
              live_.end());
}

std::uint64_t HazardTracker::on_enqueue(int stream, const char* what,
                                        const MemSpan* spans,
                                        std::size_t nspans) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto s = static_cast<std::size_t>(stream);
  // The host enqueues this op, so everything the host has waited behind
  // happens-before it.
  join(clocks_[s], host_clock_);
  const std::uint64_t seq = ++clocks_[s][s];

  for (std::size_t i = 0; i < nspans; ++i) {
    const MemSpan& sp = spans[i];
    if (sp.bytes == 0) continue;
    const char* base = bytes_begin(sp.base);
    const char* end = base + sp.bytes;

    for (const LiveAccess& e : live_) {
      if (!(sp.write || e.write)) continue;
      if (!overlaps(base, end, e.base, e.end)) continue;
      if (e.stream == stream) continue;  // program order
      if (e.seq <= clocks_[s][static_cast<std::size_t>(e.stream)]) continue;
      char r0[64], r1[64];
      format_range(r0, sizeof(r0), base, sp.bytes);
      format_range(r1, sizeof(r1), e.base,
                   static_cast<std::size_t>(e.end - e.base));
      std::ostringstream os;
      os << stream_names_[s] << " " << r0 << " vs "
         << stream_names_[static_cast<std::size_t>(e.stream)] << " " << r1;
      add_violation(Kind::UnorderedStreams, what, e.what, os.str());
    }

    for (const FreedRange& f : freed_) {
      if (!overlaps(base, end, f.base, f.end)) continue;
      char r0[64];
      format_range(r0, sizeof(r0), base, sp.bytes);
      std::ostringstream os;
      os << stream_names_[s] << " touches freed buffer (epoch " << f.epoch
         << ") " << r0;
      add_violation(Kind::UseAfterFree, what, "free", os.str());
    }
  }

  for (std::size_t i = 0; i < nspans; ++i) {
    const MemSpan& sp = spans[i];
    if (sp.bytes == 0) continue;
    const char* base = bytes_begin(sp.base);
    live_.push_back({base, base + sp.bytes, sp.write, stream, seq,
                     what != nullptr ? what : "op"});
  }
  if (++ops_since_prune_ >= kPruneEvery) {
    ops_since_prune_ = 0;
    prune_dominated();
  }
  return seq;
}

EventHazard HazardTracker::on_record(int stream) {
  std::lock_guard<std::mutex> lock(mutex_);
  return EventHazard{this, clocks_[static_cast<std::size_t>(stream)]};
}

void HazardTracker::on_wait_event(int stream, const EventHazard& ev) {
  std::lock_guard<std::mutex> lock(mutex_);
  join(clocks_[static_cast<std::size_t>(stream)], ev.clock);
}

void HazardTracker::on_host_wait(const EventHazard& ev) {
  std::lock_guard<std::mutex> lock(mutex_);
  join(host_clock_, ev.clock);
}

void HazardTracker::on_synchronize(int stream) {
  std::lock_guard<std::mutex> lock(mutex_);
  join(host_clock_, clocks_[static_cast<std::size_t>(stream)]);
}

void HazardTracker::on_alloc(const void* vbase, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  const char* base = bytes_begin(vbase);
  const char* end = base + bytes;
  // The allocator reused (part of) a freed range: it is live memory again,
  // so stop reporting touches of it as use-after-free.
  freed_.erase(std::remove_if(freed_.begin(), freed_.end(),
                              [&](const FreedRange& f) {
                                return overlaps(base, end, f.base, f.end);
                              }),
               freed_.end());
  buffers_.push_back({base, bytes, ++epoch_});
}

void HazardTracker::on_free(const void* vbase, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  const char* base = bytes_begin(vbase);
  const char* end = base + bytes;

  for (const LiveAccess& e : live_) {
    if (!overlaps(base, end, e.base, e.end)) continue;
    if (host_ordered(e)) continue;
    char r0[64];
    format_range(r0, sizeof(r0), base, bytes);
    std::ostringstream os;
    os << "freed " << r0 << " with op on "
       << stream_names_[static_cast<std::size_t>(e.stream)]
       << " not waited for";
    add_violation(Kind::FreePending, "free", e.what, os.str());
  }
  // The memory is gone either way; keep only the freed-range marker.
  live_.erase(std::remove_if(live_.begin(), live_.end(),
                             [&](const LiveAccess& e) {
                               return overlaps(base, end, e.base, e.end);
                             }),
              live_.end());

  std::uint64_t epoch = 0;
  for (auto it = buffers_.begin(); it != buffers_.end(); ++it) {
    if (it->base == base && it->bytes == bytes) {
      epoch = it->epoch;
      buffers_.erase(it);
      break;
    }
  }
  if (freed_.size() < 1024) freed_.push_back({base, end, epoch});
}

void HazardTracker::on_leak(const void* vbase, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  char r0[64];
  format_range(r0, sizeof(r0), bytes_begin(vbase), bytes);
  std::ostringstream os;
  os << "device `" << name_ << "` destroyed with live allocation " << r0;
  add_violation(Kind::Leak, "leak", "", os.str());
}

void HazardTracker::report_live_buffers_as_leaks() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const LiveBuffer& b : buffers_) {
    char r0[64];
    format_range(r0, sizeof(r0), b.base, b.bytes);
    std::ostringstream os;
    os << "device `" << name_ << "` destroyed with live allocation (epoch "
       << b.epoch << ") " << r0;
    add_violation(Kind::Leak, "leak", "", os.str());
  }
}

void HazardTracker::on_host_access(const char* what, const MemSpan* spans,
                                   std::size_t nspans) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < nspans; ++i) {
    const MemSpan& sp = spans[i];
    if (sp.bytes == 0) continue;
    const char* base = bytes_begin(sp.base);
    const char* end = base + sp.bytes;
    for (const LiveAccess& e : live_) {
      if (!(sp.write || e.write)) continue;
      if (!overlaps(base, end, e.base, e.end)) continue;
      if (host_ordered(e)) continue;
      char r0[64], r1[64];
      format_range(r0, sizeof(r0), base, sp.bytes);
      format_range(r1, sizeof(r1), e.base,
                   static_cast<std::size_t>(e.end - e.base));
      std::ostringstream os;
      os << "host " << (sp.write ? "write " : "read ") << r0 << " vs "
         << stream_names_[static_cast<std::size_t>(e.stream)] << " "
         << (e.write ? "write " : "read ") << r1;
      add_violation(Kind::HostDevice, what, e.what, os.str());
    }
  }
}

std::vector<trace::ViolationRecord> HazardTracker::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::uint64_t HazardTracker::violation_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& r : records_) n += r.count;
  return n;
}

std::uint64_t HazardTracker::count_of(Kind k) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& r : records_)
    if (r.kind == static_cast<int>(k)) n += r.count;
  return n;
}

std::size_t HazardTracker::distinct_of(Kind k) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& r : records_)
    if (r.kind == static_cast<int>(k)) ++n;
  return n;
}

std::string HazardTracker::format_report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (records_.empty()) return "";
  std::ostringstream os;
  std::uint64_t total = 0;
  for (const auto& r : records_) total += r.count;
  os << "hazard check (" << name_ << "): " << total << " violation(s), "
     << records_.size() << " distinct\n";
  for (const auto& r : records_) {
    os << "  " << kind_name(static_cast<Kind>(r.kind)) << " x" << r.count
       << "  " << r.op_a;
    if (r.op_b[0] != '\0') os << " vs " << r.op_b;
    os << "  (" << r.detail << ")\n";
  }
  return os.str();
}

HostAccessScope::HostAccessScope(HazardTracker* tracker, const char* what,
                                 std::initializer_list<MemSpan> spans) {
  if (tracker != nullptr)
    tracker->on_host_access(what, spans.begin(), spans.size());
}

HostAccessScope::HostAccessScope(HazardTracker* tracker, const char* what,
                                 const std::vector<MemSpan>& spans) {
  if (tracker != nullptr)
    tracker->on_host_access(what, spans.data(), spans.size());
}

bool hazard_env_enabled() {
  const char* v = std::getenv("HPLX_HAZARD");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

}  // namespace hplx::device
