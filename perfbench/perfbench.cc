// flowkv_perfbench: end-to-end NEXMark benchmark of FlowKV.
//
// One process runs one workload. It brings the system up (embedded FlowKV,
// or an in-process state server reached over loopback TCP), then feeds
// rounds of one fixed, seeded NEXMark input through the public Pipeline API
// until its time budget is spent. Every round starts from empty stores, so
// every round does the same work. Each round's results are checked against
// a reference this file computes from the generated events, plus
// conservation properties of the state interface; any mismatch exits 1.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ledger, timed from outside the program:
// around engine calls, around every state-handle call (a decorating
// StateBackendFactory), and from the stores' and server's public stats.
// See README.md for the workloads and the metric definitions.

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/backends/flowkv_backend.h"
#include "src/backends/lsm_backend.h"
#include "src/backends/memory_backend.h"
#include "src/backends/remote_backend.h"
#include "src/common/clock.h"
#include "src/common/env.h"
#include "src/common/hash.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/nexmark/generator.h"
#include "src/nexmark/queries.h"
#include "src/obs/metrics.h"
#include "src/spe/pipeline.h"
#include "tools/stat_format.h"

namespace flowkv {
namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class QueryKind { kTumblingMax, kSessionMedian, kSessionCount };

struct Workload {
  const char* name;
  const char* query;  // NEXMark query name passed to BuildNexmarkQuery
  QueryKind kind;
  bool remote;
  bool push;
  uint64_t bidders;
  int64_t window_ms;  // tumbling window length (q7)
  int64_t gap_ms;     // session gap (q11, q11-median)
  uint64_t events_per_round;
  FlowKvOptions store;  // embedded stores, or the server's stores
};

constexpr int64_t kInterEventMs = 10;        // generator default
// A watermark every 10 events (0.1 s of event time) keeps the results one
// engine call produces few, so a result's latency is close to its own cost.
constexpr uint64_t kWatermarkEvery = 10;
// The watermark trails the newest event by 1 s of event time (100 events).
// Without the lag, whether the server saw an append to the next window on
// both shards before the engine drained a window depended on where the first
// few bids of that window hashed, so a seed-dependent share of windows missed
// their push on q7-aar-push and was read from disk instead.
constexpr int64_t kWatermarkLagMs = 1'000;
constexpr int64_t kTailStepMs = kWatermarkEvery * kInterEventMs;

// Store options put every workload in the paper's regime: write buffers far
// smaller than the live window state, so state spills and is read back.
FlowKvOptions SpillingStore(uint64_t write_buffer_bytes, uint64_t read_chunk_bytes,
                            int partitions = 2) {
  FlowKvOptions o;
  o.write_buffer_bytes = write_buffer_bytes;
  o.read_chunk_bytes = read_chunk_bytes;
  o.num_partitions = partitions;
  return o;
}

// q7 drains a window one store partition at a time, and each partition's
// results leave together, so a window's result latencies form one step per
// partition. With the default 2 partitions the top 1% of a round's results
// all came from its single slowest window, and p99 read like a maximum. With
// 8 partitions the top step of a window holds about 12 of its 100 results,
// so a round's p99 spans about four windows. The write buffers total the same
// 512 KiB (8 x 64 KiB), and each partition's window log (about 190 KB) is
// still read in one pass, so the bytes written and read do not change.
FlowKvOptions Q7Store() { return SpillingStore(64 << 10, 1 << 20, 8); }

std::vector<Workload> Workloads() {
  return {
      {"q7-aar", "q7", QueryKind::kTumblingMax, false, false, 100, 180'000, 0, 720'000,
       Q7Store()},
      {"q11median-aur-spill", "q11-median", QueryKind::kSessionMedian, false, false, 20'000, 0,
       240'000, 40'000, SpillingStore(64 << 10, 64 << 10)},
      {"q11-rmw-remote", "q11", QueryKind::kSessionCount, true, false, 2'000, 0, 30'000, 15'000,
       SpillingStore(16 << 10, 64 << 10)},
      {"q7-aar-push", "q7", QueryKind::kTumblingMax, true, true, 100, 180'000, 0, 360'000,
       Q7Store()},
  };
}

// ---------------------------------------------------------------------------
// Timing decorator around the state handles
// ---------------------------------------------------------------------------

enum OpId {
  kAarAppend,
  kAarGetWindowChunk,
  kAurAppend,
  kAurGet,
  kAurMergeWindows,
  kRmwGet,
  kRmwPut,
  kRmwRemove,
  kNumOps
};
const char* OpName(int op) {
  switch (op) {
    case kAarAppend: return "aar.append";
    case kAarGetWindowChunk: return "aar.get_window_chunk";
    case kAurAppend: return "aur.append";
    case kAurGet: return "aur.get";
    case kAurMergeWindows: return "aur.merge_windows";
    case kRmwGet: return "rmw.get";
    case kRmwPut: return "rmw.put";
    case kRmwRemove: return "rmw.remove";
  }
  return "?";
}

// Log-linear duration histogram: 32 sub-buckets per power of two, so a
// percentile read from it is within ~3% of the exact sample.
class DurationHistogram {
 public:
  void Add(int64_t ns) {
    ++count_;
    ++buckets_[Index(ns < 1 ? 1 : static_cast<uint64_t>(ns))];
  }
  uint64_t count() const { return count_; }
  // Upper edge of the bucket holding the q-quantile, in nanoseconds.
  double Percentile(double q) const {
    if (count_ == 0) return 0;
    const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= rank) return UpperEdge(i);
    }
    return UpperEdge(kBuckets - 1);
  }

 private:
  static constexpr int kSubBits = 5;
  static constexpr size_t kBuckets = 64 << kSubBits;
  static size_t Index(uint64_t v) {
    const int msb = 63 - __builtin_clzll(v);
    if (msb < kSubBits) return static_cast<size_t>(v);
    const uint64_t sub = (v >> (msb - kSubBits)) & ((1u << kSubBits) - 1);
    return (static_cast<size_t>(msb - kSubBits + 1) << kSubBits) + sub;
  }
  static double UpperEdge(size_t i) {
    if (i < (1u << kSubBits)) return static_cast<double>(i);
    const size_t exp = (i >> kSubBits) + kSubBits - 1;
    const size_t sub = i & ((1u << kSubBits) - 1);
    return static_cast<double>((uint64_t{1} << exp) + ((sub + 1) << (exp - kSubBits)));
  }
  uint64_t count_ = 0;
  uint64_t buckets_[kBuckets] = {};
};

// One traced call, kept in memory and written out when the run ends.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t dur_ns;
};

constexpr size_t kMaxSpans = 200'000;

// The conservation properties a round must keep.
struct Conservation {
  uint64_t appended = 0;  // values appended through the state interface
  uint64_t read = 0;      // values returned by its reads
  uint64_t appended_digest = 0;
  uint64_t read_digest = 0;
  double store_bytes_written = 0;  // the stores' IoStats
  double wchar = 0;                // /proc/self/io over the same interval
  // Only embedded FlowKV is compared: a remote store's writes share wchar
  // with its socket, and the reference backends keep no IoStats.
  bool compare_io = false;
};

// Everything the decorator and the engine loop record. Single-threaded: the
// worker thread owns it.
struct Ledger {
  bool timed = false;  // time calls (traced rounds only)

  int64_t ns[kNumOps] = {};
  DurationHistogram hist[kNumOps];

  // Conservation: every value appended is returned by exactly one read.
  // The digests are sums of value hashes, an order-free multiset digest.
  Conservation counts;

  std::vector<Span> spans;

  void Record(int op, int64_t start, int64_t end) {
    ns[op] += end - start;
    hist[op].Add(end - start);
    Trace(OpName(op), start, end);
  }
  void Trace(const char* name, int64_t start, int64_t end) {
    if (spans.size() < kMaxSpans) spans.push_back({name, start, end - start});
  }
  int64_t StateNanos() const {
    int64_t total = 0;
    for (int i = 0; i < kNumOps; ++i) total += ns[i];
    return total;
  }
  void CountAppend(const Slice& v) {
    ++counts.appended;
    counts.appended_digest += Hash64(v);
  }
  void CountRead(const std::string& v) {
    ++counts.read;
    counts.read_digest += Hash64(Slice(v));
  }
};

// Times `fn` into the ledger when the round is traced.
template <typename Fn>
Status Timed(Ledger* ledger, int op, Fn&& fn) {
  if (!ledger->timed) return fn();
  const int64_t start = MonotonicNanos();
  Status s = fn();
  ledger->Record(op, start, MonotonicNanos());
  return s;
}

class TimedAar : public AppendAlignedState {
 public:
  TimedAar(std::unique_ptr<AppendAlignedState> inner, Ledger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}
  Status Append(const Slice& key, const Slice& value, const Window& w) override {
    ledger_->CountAppend(value);
    return Timed(ledger_, kAarAppend, [&] { return inner_->Append(key, value, w); });
  }
  Status GetWindowChunk(const Window& w, std::vector<WindowChunkEntry>* chunk,
                        bool* done) override {
    Status s =
        Timed(ledger_, kAarGetWindowChunk, [&] { return inner_->GetWindowChunk(w, chunk, done); });
    if (s.ok()) {
      for (const WindowChunkEntry& e : *chunk) {
        for (const std::string& v : e.values) ledger_->CountRead(v);
      }
    }
    return s;
  }

 private:
  std::unique_ptr<AppendAlignedState> inner_;
  Ledger* ledger_;
};

class TimedAur : public AppendUnalignedState {
 public:
  TimedAur(std::unique_ptr<AppendUnalignedState> inner, Ledger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}
  Status Append(const Slice& key, const Slice& value, const Window& w,
                int64_t timestamp) override {
    ledger_->CountAppend(value);
    return Timed(ledger_, kAurAppend, [&] { return inner_->Append(key, value, w, timestamp); });
  }
  Status Get(const Slice& key, const Window& w, std::vector<std::string>* values) override {
    Status s = Timed(ledger_, kAurGet, [&] { return inner_->Get(key, w, values); });
    if (s.ok()) {
      for (const std::string& v : *values) ledger_->CountRead(v);
    }
    return s;
  }
  // Moved values were counted when appended and are counted again only when
  // read, so a merge neither adds nor removes from the balance.
  Status MergeWindows(const Slice& key, const std::vector<Window>& sources,
                      const Window& dst) override {
    return Timed(ledger_, kAurMergeWindows,
                 [&] { return inner_->MergeWindows(key, sources, dst); });
  }

 private:
  std::unique_ptr<AppendUnalignedState> inner_;
  Ledger* ledger_;
};

class TimedRmw : public RmwState {
 public:
  TimedRmw(std::unique_ptr<RmwState> inner, Ledger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}
  Status Get(const Slice& key, const Window& w, std::string* acc) override {
    return Timed(ledger_, kRmwGet, [&] { return inner_->Get(key, w, acc); });
  }
  Status Put(const Slice& key, const Window& w, const Slice& acc) override {
    return Timed(ledger_, kRmwPut, [&] { return inner_->Put(key, w, acc); });
  }
  Status Remove(const Slice& key, const Window& w) override {
    return Timed(ledger_, kRmwRemove, [&] { return inner_->Remove(key, w); });
  }

 private:
  std::unique_ptr<RmwState> inner_;
  Ledger* ledger_;
};

class TimedBackend : public StateBackend {
 public:
  TimedBackend(std::unique_ptr<StateBackend> inner, Ledger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}
  Status CreateAppendAligned(const OperatorStateSpec& spec,
                             std::unique_ptr<AppendAlignedState>* out) override {
    std::unique_ptr<AppendAlignedState> inner;
    FLOWKV_RETURN_IF_ERROR(inner_->CreateAppendAligned(spec, &inner));
    *out = std::make_unique<TimedAar>(std::move(inner), ledger_);
    return Status::Ok();
  }
  Status CreateAppendUnaligned(const OperatorStateSpec& spec,
                               std::unique_ptr<AppendUnalignedState>* out) override {
    std::unique_ptr<AppendUnalignedState> inner;
    FLOWKV_RETURN_IF_ERROR(inner_->CreateAppendUnaligned(spec, &inner));
    *out = std::make_unique<TimedAur>(std::move(inner), ledger_);
    return Status::Ok();
  }
  Status CreateRmw(const OperatorStateSpec& spec, std::unique_ptr<RmwState>* out) override {
    std::unique_ptr<RmwState> inner;
    FLOWKV_RETURN_IF_ERROR(inner_->CreateRmw(spec, &inner));
    *out = std::make_unique<TimedRmw>(std::move(inner), ledger_);
    return Status::Ok();
  }
  StoreStats GatherStats() const override { return inner_->GatherStats(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<StateBackend> inner_;
  Ledger* ledger_;
};

class TimedFactory : public StateBackendFactory {
 public:
  TimedFactory(StateBackendFactory* inner, Ledger* ledger) : inner_(inner), ledger_(ledger) {}
  Status CreateBackend(int worker, const std::string& operator_name,
                       std::unique_ptr<StateBackend>* out) override {
    std::unique_ptr<StateBackend> inner;
    FLOWKV_RETURN_IF_ERROR(inner_->CreateBackend(worker, operator_name, &inner));
    *out = std::make_unique<TimedBackend>(std::move(inner), ledger_);
    return Status::Ok();
  }
  std::string name() const override { return inner_->name(); }

 private:
  StateBackendFactory* inner_;
  Ledger* ledger_;
};

// ---------------------------------------------------------------------------
// Results and the independent reference
// ---------------------------------------------------------------------------

struct Result {
  uint64_t bidder = 0;
  int64_t timestamp = 0;  // window max timestamp
  uint64_t value = 0;
  bool operator<(const Result& o) const {
    return std::tie(bidder, timestamp, value) < std::tie(o.bidder, o.timestamp, o.value);
  }
  bool operator==(const Result& o) const = default;
};

uint64_t LoadLE64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

// A generated bid, decoded without the program's parser: tag byte 2, then
// little-endian auction, bidder, price, date_time.
bool DecodeBid(const std::string& value, uint64_t* bidder, uint64_t* price) {
  if (value.size() < 33 || value[0] != 2) return false;
  *bidder = LoadLE64(value.data() + 9);
  *price = LoadLE64(value.data() + 17);
  return true;
}

// Computes each query's expected results from the generated events, in
// plain code that shares nothing with the engine.
class Reference {
 public:
  explicit Reference(const Workload& w) : w_(w) {}

  void Add(const Event& e) {
    uint64_t bidder = 0, price = 0;
    if (!DecodeBid(e.value, &bidder, &price)) return;
    ++bids_;
    if (w_.kind == QueryKind::kTumblingMax) {
      const int64_t end = (e.timestamp / w_.window_ms + 1) * w_.window_ms;
      uint64_t& best = max_[{bidder, end - 1}];
      best = std::max(best, price);
      return;
    }
    Session& s = open_[bidder];
    if (!s.prices.empty() && e.timestamp - s.last_ts > w_.gap_ms) Close(bidder, &s);
    s.last_ts = e.timestamp;
    s.prices.push_back(price);
  }

  std::vector<Result> Finish() {
    std::vector<Result> out;
    for (const auto& [k, v] : max_) out.push_back({k.first, k.second, v});
    for (auto& [bidder, s] : open_) {
      if (!s.prices.empty()) Close(bidder, &s);
    }
    out.insert(out.end(), closed_.begin(), closed_.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  uint64_t bids() const { return bids_; }

 private:
  struct Session {
    int64_t last_ts = 0;
    std::vector<uint64_t> prices;
  };
  // Session windows [first, last + gap) merge when they touch, so a session
  // closes at a gap strictly longer than gap_ms.
  void Close(uint64_t bidder, Session* s) {
    uint64_t value = s->prices.size();
    if (w_.kind == QueryKind::kSessionMedian) {
      std::sort(s->prices.begin(), s->prices.end());
      value = s->prices[(s->prices.size() - 1) / 2];
    }
    closed_.push_back({bidder, s->last_ts + w_.gap_ms - 1, value});
    s->prices.clear();
  }

  const Workload& w_;
  uint64_t bids_ = 0;
  std::map<std::pair<uint64_t, int64_t>, uint64_t> max_;
  std::unordered_map<uint64_t, Session> open_;
  std::vector<Result> closed_;
};

// Compares results to the reference, plus the q11 count conservation.
// Returns "" when they agree, else the first difference.
std::string CheckResults(const Workload& w, std::vector<Result> got,
                         const std::vector<Result>& want, uint64_t bids) {
  std::sort(got.begin(), got.end());
  if (w.kind == QueryKind::kSessionCount) {
    uint64_t sum = 0;
    for (const Result& r : got) sum += r.value;
    if (sum != bids) {
      return "session counts sum to " + std::to_string(sum) + ", not the " +
             std::to_string(bids) + " bids";
    }
  }
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (!(got[i] == want[i])) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "result %zu: got (bidder %" PRIu64 ", ts %" PRId64 ", %" PRIu64
                    "), want (bidder %" PRIu64 ", ts %" PRId64 ", %" PRIu64 ")",
                    i, got[i].bidder, got[i].timestamp, got[i].value, want[i].bidder,
                    want[i].timestamp, want[i].value);
      return buf;
    }
  }
  if (got.size() != want.size()) {
    return "got " + std::to_string(got.size()) + " results, want " + std::to_string(want.size());
  }
  return "";
}

// Relative tolerance between the stores' own write count and the kernel's
// count of the process's write() bytes (embedded workloads).
constexpr double kIoTolerance = 0.02;

std::string CheckConservation(const Workload& w, const Conservation& c) {
  if (w.kind != QueryKind::kSessionCount &&
      (c.appended != c.read || c.appended_digest != c.read_digest)) {
    return "state interface: " + std::to_string(c.appended) + " values appended, " +
           std::to_string(c.read) + " returned, or not the same values";
  }
  // Two independent paths to the bytes the stores wrote: their IoStats and
  // the kernel's count of this process's write() bytes.
  if (c.compare_io && (c.store_bytes_written <= 0 ||
                    std::abs(c.wchar - c.store_bytes_written) >
                        kIoTolerance * c.store_bytes_written)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "store IoStats wrote %.0f B but /proc/self/io wchar grew %.0f B",
                  c.store_bytes_written, c.wchar);
    return buf;
  }
  return "";
}

enum class Mutation {
  kNone,
  kChangeValue,
  kShiftTimestamp,
  kDropResult,
  kDuplicateResult,
  kLoseStateValue,
  kMiscountIo,
};

// Result latencies of a whole run, counted per microsecond. A run's
// percentiles come from all of its measured results, so the memory for them
// must not grow with the number of rounds: that would show in peak_rss_mb,
// and a faster program, fitting more rounds into a run, would read as one
// that uses more memory. Counts up to 131 ms take a fixed 512 KiB, allocated
// and touched before the first round; slower results are kept exactly.
// A percentile is exact to within half a microsecond.
class LatencyCounts {
 public:
  LatencyCounts() : counts_(kSlots, 0) {}
  void Add(int64_t ns) {
    ++n_;
    const uint64_t us = static_cast<uint64_t>(std::max<int64_t>(ns, 0)) / 1000;
    if (us < kSlots) {
      ++counts_[us];
    } else {
      slow_.push_back(ns);
    }
  }
  uint64_t size() const { return n_; }
  // The sample of rank floor(q * (n - 1)), in nanoseconds: the middle of its
  // microsecond, or the exact value above the counted range.
  double Quantile(double q) {
    if (n_ == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(n_ - 1));
    for (size_t us = 0; us < kSlots; ++us) {
      if (rank < counts_[us]) return static_cast<double>(us) * 1e3 + 500;
      rank -= counts_[us];
    }
    std::nth_element(slow_.begin(), slow_.begin() + static_cast<long>(rank), slow_.end());
    return static_cast<double>(slow_[rank]);
  }

 private:
  static constexpr size_t kSlots = 1 << 17;
  std::vector<uint32_t> counts_;
  std::vector<int64_t> slow_;
  uint64_t n_ = 0;
};

// Receives final outputs; stamps each with its latency from the start of
// the engine call that produced it.
class ResultSink : public Collector {
 public:
  explicit ResultSink(const int64_t* call_start) : call_start_(call_start) {}
  Status Emit(const Event& e) override {
    latencies_ns.push_back(MonotonicNanos() - *call_start_);
    Result r;
    r.bidder = e.key.size() == 8 ? LoadLE64(e.key.data()) : UINT64_MAX;
    r.timestamp = e.timestamp;
    r.value = e.value.size() == 8 ? LoadLE64(e.value.data()) : UINT64_MAX;
    results.push_back(r);
    return Status::Ok();
  }
  std::vector<Result> results;
  std::vector<int64_t> latencies_ns;

 private:
  const int64_t* call_start_;
};

// ---------------------------------------------------------------------------
// Process-level measurements
// ---------------------------------------------------------------------------

struct ProcIo {
  uint64_t wchar = 0;  // bytes passed to write() and friends
};

ProcIo ReadProcIo() {
  ProcIo io;
  std::ifstream in("/proc/self/io");
  std::string name;
  uint64_t value = 0;
  while (in >> name >> value) {
    if (name == "wchar:") io.wchar = value;
  }
  return io;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Pins the calling thread, and so every thread it starts later (server
// reactor, push reader), to one CPU. On a virtual machine a wake-up on
// another vCPU costs a hypervisor round trip whose latency swings with the
// host's load, and it would dominate the loopback round trips; on one CPU
// the round trip is the program's own work plus two context switches.
// Rounds rotate through the allowed CPUs so no single vCPU's neighbours
// decide a run.
void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::perror("sched_setaffinity");
  }
}

// Server-side counters from kStats (cumulative per process; rounds take
// deltas) and the client-side read-ahead cache counters.
struct NetCounters {
  double requests = 0, bytes_in = 0, bytes_out = 0, shed = 0;
  double fired = 0, pushes_sent = 0, pushes_dropped = 0, invalidated = 0, waste = 0,
         overflow = 0;
  std::vector<double> shard_ops;
  double cache_hits = 0;

  void Sub(const NetCounters& b) {
    requests -= b.requests, bytes_in -= b.bytes_in, bytes_out -= b.bytes_out, shed -= b.shed;
    fired -= b.fired, pushes_sent -= b.pushes_sent, pushes_dropped -= b.pushes_dropped;
    invalidated -= b.invalidated, waste -= b.waste, overflow -= b.overflow;
    for (size_t i = 0; i < shard_ops.size() && i < b.shard_ops.size(); ++i) {
      shard_ops[i] -= b.shard_ops[i];
    }
    cache_hits -= b.cache_hits;
  }
  void Add(const NetCounters& b) {
    requests += b.requests, bytes_in += b.bytes_in, bytes_out += b.bytes_out, shed += b.shed;
    fired += b.fired, pushes_sent += b.pushes_sent, pushes_dropped += b.pushes_dropped;
    invalidated += b.invalidated, waste += b.waste, overflow += b.overflow;
    shard_ops.resize(std::max(shard_ops.size(), b.shard_ops.size()));
    for (size_t i = 0; i < b.shard_ops.size(); ++i) shard_ops[i] += b.shard_ops[i];
    cache_hits += b.cache_hits;
  }
};

Status FetchNetCounters(net::Client* client, NetCounters* out) {
  std::string json;
  FLOWKV_RETURN_IF_ERROR(client->Stats(&json));
  tools::JsonValue doc;
  if (!tools::ParseJson(json, &doc)) return Status::Corruption("unparseable kStats JSON");
  *out = NetCounters();
  if (const tools::JsonValue* s = doc.Get("server")) {
    out->requests = s->Num("requests");
    out->bytes_in = s->Num("bytes_in");
    out->bytes_out = s->Num("bytes_out");
    out->shed = s->Num("shed_overload") + s->Num("shed_deadline");
  }
  if (const tools::JsonValue* p = doc.Get("prefetch")) {
    out->fired = p->Num("fired");
    out->pushes_sent = p->Num("pushes_sent");
    out->pushes_dropped = p->Num("pushes_dropped");
    out->invalidated = p->Num("invalidated");
    out->waste = p->Num("waste");
    out->overflow = p->Num("overflow");
  }
  if (const tools::JsonValue* shards = doc.Get("shards")) {
    for (const tools::JsonValue& shard : shards->arr) {
      out->shard_ops.push_back(shard.Num("ops"));
    }
  }
  for (const obs::MetricSample& m : obs::MetricsRegistry::Global().Snapshot()) {
    if (m.name == "client.prefetch_hits") out->cache_hits += static_cast<double>(m.value);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// One round: fresh stores (and server), the fixed input, checks
// ---------------------------------------------------------------------------

struct RoundStats {
  uint64_t events = 0;
  int64_t proc_ns = 0;    // engine calls plus the loop around them
  int64_t gen_ns = 0;     // generating the input
  int64_t engine_ns = 0;  // inside Process / AdvanceWatermark / Finish (traced rounds)
  StoreStats store;
  ProcIo io;              // process syscall bytes over processing + teardown
  NetCounters net;
  uint64_t results = 0;
};

class Runner {
 public:
  // `backend` is "flowkv", or for reference figures on embedded workloads
  // "lsm" (the rocksdb-like baseline) or "memory".
  Runner(const Workload& w, uint64_t seed, std::string work_dir, std::string backend = "flowkv")
      : w_(w), seed_(seed), work_dir_(std::move(work_dir)), backend_(std::move(backend)) {}

  // Brings the system up for round `round`; stops short of feeding events.
  Status SetUp(int round) {
    dir_ = JoinPath(work_dir_, "round" + std::to_string(round));
    FLOWKV_RETURN_IF_ERROR(CreateDirs(dir_));
    if (w_.remote) {
      if (backend_ != "flowkv") return Status::InvalidArgument("remote workloads serve FlowKV");
      net::ServerOptions so;
      so.data_dir = JoinPath(dir_, "server");
      so.num_shards = 2;
      so.reactor_threads = 1;
      so.restore = false;
      so.enable_prefetch_push = w_.push;
      so.store_options = w_.store;
      FLOWKV_RETURN_IF_ERROR(net::Server::Start(so, &server_));
      net::ClientOptions co;
      co.port = server_->port();
      co.enable_prefetch_push = w_.push;
      inner_ = std::make_unique<RemoteBackendFactory>(co);
      net::ClientOptions stats_opts;
      stats_opts.port = server_->port();
      FLOWKV_RETURN_IF_ERROR(net::Client::Connect(stats_opts, &stats_client_));
    } else {
      const std::string stores = JoinPath(dir_, "stores");
      if (backend_ == "flowkv") {
        inner_ = std::make_unique<FlowKvBackendFactory>(stores, w_.store);
      } else if (backend_ == "lsm") {
        inner_ = std::make_unique<LsmBackendFactory>(stores, LsmOptions());
      } else if (backend_ == "memory") {
        inner_ = std::make_unique<MemoryBackendFactory>();
      } else {
        return Status::InvalidArgument("unknown backend " + backend_);
      }
    }
    factory_ = std::make_unique<TimedFactory>(inner_.get(), &ledger_);
    sink_ = std::make_unique<ResultSink>(&call_start_);
    pipeline_ = std::make_unique<Pipeline>();
    QueryParams params;
    params.window_size_ms = w_.window_ms > 0 ? w_.window_ms : params.window_size_ms;
    params.session_gap_ms = w_.gap_ms > 0 ? w_.gap_ms : params.session_gap_ms;
    FLOWKV_RETURN_IF_ERROR(BuildNexmarkQuery(w_.query, params, pipeline_.get()));
    return pipeline_->Open(factory_.get(), 0, sink_.get());
  }

  // Feeds the round's input, tears the system down and checks the results.
  // `error` gets a description of any check that failed.
  Status Run(bool timed, RoundStats* st, std::vector<int64_t>* latencies, std::string* error) {
    ledger_.timed = timed;
    const Conservation before = ledger_.counts;
    NetCounters net_before;
    if (stats_client_) FLOWKV_RETURN_IF_ERROR(FetchNetCounters(stats_client_.get(), &net_before));
    const ProcIo io_before = ReadProcIo();

    NexmarkConfig cfg;
    cfg.events_per_worker = w_.events_per_round;
    cfg.num_people = w_.bidders;
    cfg.inter_event_ms = kInterEventMs;
    cfg.seed = seed_;
    NexmarkSource source(cfg, 0);
    Reference reference(w_);

    constexpr size_t kBatch = 4096;
    std::vector<Event> batch(kBatch);
    int64_t last_ts = 0;
    uint64_t since_watermark = 0;
    for (;;) {
      const int64_t g0 = MonotonicNanos();
      size_t n = 0;
      while (n < kBatch && source.Next(&batch[n])) ++n;
      const int64_t g1 = MonotonicNanos();
      st->gen_ns += g1 - g0;
      if (timed) ledger_.Trace("nexmark.gen", g0, g1);
      if (n == 0) break;
      for (size_t i = 0; i < n; ++i) reference.Add(batch[i]);

      const int64_t p0 = MonotonicNanos();
      for (size_t i = 0; i < n; ++i) {
        FLOWKV_RETURN_IF_ERROR(EngineCall(timed, "spe.process", st,
                                          [&] { return pipeline_->Process(batch[i]); }));
        last_ts = batch[i].timestamp;
        if (++since_watermark == kWatermarkEvery) {
          since_watermark = 0;
          FLOWKV_RETURN_IF_ERROR(EngineCall(timed, "spe.watermark", st, [&] {
            return pipeline_->AdvanceWatermark(last_ts - kWatermarkLagMs);
          }));
        }
      }
      st->proc_ns += MonotonicNanos() - p0;
      st->events += n;
    }
    // Event time keeps passing after the last event, at the same watermark
    // pace, until every window has closed; Finish() then finds nothing.
    const int64_t p0 = MonotonicNanos();
    const int64_t horizon = last_ts + std::max(w_.window_ms, w_.gap_ms) + kTailStepMs;
    for (int64_t wm = last_ts + kTailStepMs; wm <= horizon; wm += kTailStepMs) {
      FLOWKV_RETURN_IF_ERROR(EngineCall(timed, "spe.watermark", st,
                                        [&] { return pipeline_->AdvanceWatermark(wm); }));
    }
    FLOWKV_RETURN_IF_ERROR(
        EngineCall(timed, "spe.finish", st, [&] { return pipeline_->Finish(); }));
    st->proc_ns += MonotonicNanos() - p0;

    st->store = pipeline_->GatherStats();
    if (stats_client_) {
      FLOWKV_RETURN_IF_ERROR(FetchNetCounters(stats_client_.get(), &st->net));
      st->net.Sub(net_before);
    }
    TearDown();
    st->io = ReadProcIo();
    st->io.wchar -= io_before.wchar;

    st->results = sink_->results.size();
    latencies->insert(latencies->end(), sink_->latencies_ns.begin(), sink_->latencies_ns.end());
    std::vector<Result> got = std::move(sink_->results);
    sink_.reset();
    Conservation c = ledger_.counts;
    c.appended -= before.appended;
    c.read -= before.read;
    c.appended_digest -= before.appended_digest;
    c.read_digest -= before.read_digest;
    c.store_bytes_written = static_cast<double>(st->store.io.bytes_written);
    c.wchar = static_cast<double>(st->io.wchar);
    c.compare_io = !w_.remote && backend_ == "flowkv";
    Mutate(&got, &c);
    *error = CheckResults(w_, std::move(got), reference.Finish(), reference.bids());
    if (error->empty()) *error = CheckConservation(w_, c);
    return RemoveDirRecursively(dir_);
  }

  // Self-test only: corrupts this round's results or counters before the
  // checks run, which must then fail.
  void set_mutation(Mutation m) { mutation_ = m; }

  const Ledger& ledger() const { return ledger_; }

 private:
  template <typename Fn>
  Status EngineCall(bool timed, const char* name, RoundStats* st, Fn&& fn) {
    call_start_ = MonotonicNanos();
    Status s = fn();
    if (timed) {
      const int64_t end = MonotonicNanos();
      st->engine_ns += end - call_start_;
      ledger_.Trace(name, call_start_, end);
    }
    return s;
  }

  void Mutate(std::vector<Result>* got, Conservation* c) const {
    if (got->empty()) return;
    Result& r = (*got)[got->size() / 2];
    switch (mutation_) {
      case Mutation::kNone: break;
      case Mutation::kChangeValue: ++r.value; break;
      case Mutation::kShiftTimestamp: r.timestamp += 1; break;
      case Mutation::kDropResult: got->erase(got->begin() + static_cast<long>(got->size() / 2));
        break;
      case Mutation::kDuplicateResult: got->push_back(r); break;
      case Mutation::kLoseStateValue: --c->read; break;
      case Mutation::kMiscountIo: c->wchar *= 1 + 2 * kIoTolerance; break;
    }
  }

  void TearDown() {
    pipeline_.reset();
    factory_.reset();
    inner_.reset();
    stats_client_.reset();
    if (server_) server_->Stop();
    server_.reset();
  }

  const Workload& w_;
  Mutation mutation_ = Mutation::kNone;
  uint64_t seed_;
  std::string work_dir_;
  std::string backend_;
  std::string dir_;
  Ledger ledger_;
  int64_t call_start_ = 0;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<net::Client> stats_client_;
  std::unique_ptr<StateBackendFactory> inner_;
  std::unique_ptr<TimedFactory> factory_;
  std::unique_ptr<ResultSink> sink_;
  std::unique_ptr<Pipeline> pipeline_;
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    body_ += (body_.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + buf +
             ", \"unit\": \"" + unit + "\"}";
    char row[160];
    std::snprintf(row, sizeof(row), "  %-36s %16.6g  %s\n", name.c_str(), value, unit);
    table_ += row;
  }
  // One metric a line, for people.
  const std::string& Table() const { return table_; }
  std::string Line(bool correct, uint64_t attempted, uint64_t failed) const {
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + body_ + "}}";
  }

 private:
  std::string body_;
  std::string table_;
};

double Quantile(std::vector<int64_t>* v, double q) {
  if (v->empty()) return 0;
  const size_t k = static_cast<size_t>(q * static_cast<double>(v->size() - 1));
  std::nth_element(v->begin(), v->begin() + static_cast<long>(k), v->end());
  return static_cast<double>((*v)[k]);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f, "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                 i == 0 ? "" : ",", spans[i].name, spans[i].start_ns / 1e3,
                 spans[i].dur_ns / 1e3);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  int64_t start_ns = 0;  // CLOCK_MONOTONIC when the launcher spawned us
  std::string spans_out;
  bool self_test = false;
  std::string backend = "flowkv";
};

int RunBenchmark(const Args& args) {
  const int64_t start_ns = args.start_ns > 0 ? args.start_ns : MonotonicNanos();
  const Workload* w = nullptr;
  static const std::vector<Workload> all = Workloads();
  for (const Workload& c : all) {
    if (args.workload == c.name) w = &c;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Runner runner(*w, args.seed, args.work_dir, args.backend);
  double setup_s = 0;
  RoundStats traced, untraced;
  // Result latencies of every measured untraced round. A run reports
  // percentiles over all of them. The host's speed drifts over tens of
  // seconds; pooled percentiles follow the share of a run spent slow, where
  // a median of per-round percentiles jumps between the fast and slow values.
  LatencyCounts measured_latencies;
  size_t min_round_samples = SIZE_MAX;
  uint64_t attempted = 0;
  int rounds = 0;
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  int64_t measuring_since = 0;
  const std::vector<int> cpus = AllowedCpus();
  for (;; ++rounds) {
    // Rounds 2k-1 and 2k share a CPU, so a traced run's traced and
    // untraced rounds see the same CPUs.
    if (!cpus.empty()) PinToCpu(cpus[(args.seed + (rounds + 1) / 2) % cpus.size()]);
    Status s = runner.SetUp(rounds);
    if (rounds == 0) {
      setup_s = static_cast<double>(MonotonicNanos() - start_ns) / 1e9;
      measuring_since = MonotonicNanos();
    }
    // Round 0 warms the page cache and allocator and is not measured. In a
    // traced run later rounds alternate traced and untraced, so the ledger
    // and its overhead come from the same process.
    const bool warmup = rounds == 0;
    const bool timed = args.trace && !warmup && rounds % 2 == 1;
    RoundStats st;
    std::string error;
    std::vector<int64_t> latencies;
    if (s.ok()) s = runner.Run(timed, &st, &latencies, &error);
    if (!s.ok()) {
      std::fprintf(stderr, "%s round %d: %s\n", w->name, rounds, s.ToString().c_str());
      return 1;
    }
    attempted += st.events;
    std::fprintf(stderr, "round %d: %.0f events/s, result latency p50 %.3f ms, p99 %.3f ms\n",
                 rounds, st.events / (st.proc_ns / 1e9), Quantile(&latencies, 0.50) / 1e6,
                 Quantile(&latencies, 0.99) / 1e6);
    if (!error.empty()) {
      std::fprintf(stderr, "%s round %d: check failed: %s\n", w->name, rounds, error.c_str());
      std::printf("%s\n", MetricsJson().Line(false, attempted, 0).c_str());
      return 1;
    }
    if (!warmup && !timed) {
      min_round_samples = std::min(min_round_samples, latencies.size());
      for (int64_t ns : latencies) measured_latencies.Add(ns);
    }
    if (!warmup) {
      RoundStats& into = timed ? traced : untraced;
      into.events += st.events;
      into.proc_ns += st.proc_ns;
      into.gen_ns += st.gen_ns;
      into.engine_ns += st.engine_ns;
      into.store.MergeFrom(st.store);
      into.net.Add(st.net);
      into.results += st.results;
    }
    const int64_t elapsed = MonotonicNanos() - measuring_since;
    // Stop once the budget is spent, after at least one measured round (two
    // when traced, one of each kind).
    const int min_rounds = args.trace ? 3 : 2;
    if (rounds + 1 >= min_rounds && elapsed >= budget_ns) {
      ++rounds;
      break;
    }
  }

  MetricsJson m;
  if (!args.trace) {
    const RoundStats& u = untraced;
    const double events = static_cast<double>(u.events);
    const uint64_t samples = measured_latencies.size();
    const double p50 = measured_latencies.Quantile(0.50) / 1e6;
    const double p99 = measured_latencies.Quantile(0.99) / 1e6;
    m.Add("events_per_s", events / (static_cast<double>(u.proc_ns) / 1e9), "events/s");
    m.Add("result_latency_p50_ms", p50, "ms");
    m.Add("result_latency_p99_ms", p99, "ms");
    m.Add("disk_write_bytes_per_event", static_cast<double>(u.store.io.bytes_written) / events,
          "B/event");
    m.Add("disk_read_bytes_per_event", static_cast<double>(u.store.io.bytes_read) / events,
          "B/event");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
    m.Add("setup_s", setup_s, "s");
    std::printf(
        "%s: %d rounds (1 warm-up), %.0f events measured, %" PRIu64 " result latency samples, "
        "at least %zu per round\n",
        w->name, rounds, events, samples, min_round_samples);
  } else {
    const RoundStats& t = traced;
    const Ledger& l = runner.ledger();
    const double events = static_cast<double>(t.events);
    const double proc = static_cast<double>(t.proc_ns);
    const double state_ns = static_cast<double>(l.StateNanos());
    const double spe_self = static_cast<double>(t.engine_ns) - state_ns;
    // The stores' own entry timers. AUR compaction runs inside a read (the
    // predictive batch read) and is already in read_ns; RMW compaction runs
    // after a Put's write timer stops.
    const StoreStats& s = t.store;
    const bool rmw = l.hist[kRmwGet].count() > 0;
    const double store_ns = static_cast<double>(s.write_nanos + s.read_nanos +
                                                (rmw ? int64_t{s.compaction_nanos} : 0));
    const double wall = proc + static_cast<double>(t.gen_ns);
    m.Add("nexmark.gen_ns_per_event", static_cast<double>(t.gen_ns) / events, "ns/event");
    m.Add("spe.self_ns_per_event", spe_self / events, "ns/event");
    m.Add("spe.results", static_cast<double>(t.results), "count");
    for (int op = 0; op < kNumOps; ++op) {
      const std::string p = std::string("state.") + OpName(op);
      m.Add(p + ".calls", static_cast<double>(l.hist[op].count()), "count");
      m.Add(p + ".ns", static_cast<double>(l.ns[op]), "ns");
      m.Add(p + ".p50_us", l.hist[op].Percentile(0.50) / 1e3, "us");
      m.Add(p + ".p99_us", l.hist[op].Percentile(0.99) / 1e3, "us");
    }
    // Time in the state handles that neither the stores' own timers nor the
    // engine account for: the backend adapter, and on remote workloads the
    // client, transport and server dispatch.
    m.Add(w->remote ? "net.self_ns_per_event" : "backends.self_ns_per_event",
          (state_ns - store_ns) / events, "ns/event");
    m.Add(w->remote ? "backends.self_ns_per_event" : "net.self_ns_per_event", 0, "ns/event");
    m.Add("flowkv.write_ns", static_cast<double>(s.write_nanos), "ns");
    m.Add("flowkv.read_ns", static_cast<double>(s.read_nanos), "ns");
    m.Add("flowkv.compaction_ns", static_cast<double>(s.compaction_nanos), "ns");
    m.Add("flowkv.flushes", static_cast<double>(s.flushes), "count");
    m.Add("flowkv.compactions", static_cast<double>(s.compactions), "count");
    m.Add("flowkv.io_read_ns", static_cast<double>(s.io.read_nanos), "ns");
    m.Add("flowkv.io_write_ns", static_cast<double>(s.io.write_nanos), "ns");
    m.Add("flowkv.io_sync_ns", static_cast<double>(s.io.sync_nanos), "ns");
    m.Add("flowkv.prefetch_hit_ratio", s.PrefetchHitRatio(), "ratio");
    m.Add("flowkv.prefetch_hits", static_cast<double>(s.prefetch_hits), "count");
    m.Add("flowkv.prefetch_misses", static_cast<double>(s.prefetch_misses), "count");
    m.Add("flowkv.prefetch_evictions", static_cast<double>(s.prefetch_evictions), "count");
    m.Add("flowkv.read_amplification", s.ReadAmplification(), "ratio");
    m.Add("flowkv.ett_mean_abs_error_ms", s.EttMeanAbsErrorMs(), "ms");
    const NetCounters& n = t.net;
    m.Add("net.requests_per_event", n.requests / events, "1/event");
    m.Add("net.bytes_in_per_event", n.bytes_in / events, "B/event");
    m.Add("net.bytes_out_per_event", n.bytes_out / events, "B/event");
    double max_shard = 0, sum_shard = 0;
    for (double ops : n.shard_ops) max_shard = std::max(max_shard, ops), sum_shard += ops;
    m.Add("net.shard0_ops", n.shard_ops.size() > 0 ? n.shard_ops[0] : 0, "count");
    m.Add("net.shard1_ops", n.shard_ops.size() > 1 ? n.shard_ops[1] : 0, "count");
    m.Add("net.shard_skew",
          Ratio(max_shard, sum_shard / static_cast<double>(std::max<size_t>(1, n.shard_ops.size()))),
          "ratio");
    m.Add("net.shed", n.shed, "count");
    m.Add("prefetch.fired", n.fired, "count");
    m.Add("prefetch.pushes_sent", n.pushes_sent, "count");
    m.Add("prefetch.pushes_dropped", n.pushes_dropped, "count");
    m.Add("prefetch.invalidated", n.invalidated, "count");
    m.Add("prefetch.waste", n.waste, "count");
    m.Add("prefetch.overflow", n.overflow, "count");
    // `fired` counts per shard, and every window of these workloads has keys
    // on every shard, so windows pushed = fired / shards. A cache hit is a
    // window the engine drained without a server GetWindow.
    const double windows_pushed =
        n.fired / static_cast<double>(std::max<size_t>(1, n.shard_ops.size()));
    m.Add("prefetch.useful_ratio", Ratio(n.cache_hits, windows_pushed), "ratio");
    m.Add("prefetch.cache_hits", n.cache_hits, "count");
    const double unattributed =
        wall - static_cast<double>(t.gen_ns) - spe_self - state_ns;
    m.Add("unattributed_share", Ratio(unattributed, wall), "ratio");
    const double traced_rate = Ratio(proc, events);
    const double untraced_rate =
        Ratio(static_cast<double>(untraced.proc_ns), static_cast<double>(untraced.events));
    m.Add("obs.trace_overhead", Ratio(traced_rate, untraced_rate), "ratio");
    if (!args.spans_out.empty()) WriteSpans(args.spans_out, l.spans);
    std::printf("%s: %d rounds (1 warm-up, %.0f events traced, %.0f untraced)\n%s", w->name,
                rounds, events, static_cast<double>(untraced.events), m.Table().c_str());
  }
  std::printf("%s\n", m.Line(true, attempted, 0).c_str());
  return 0;
}

const char* MutationName(Mutation m) {
  switch (m) {
    case Mutation::kNone: return "unmutated";
    case Mutation::kChangeValue: return "changed value";
    case Mutation::kShiftTimestamp: return "shifted window";
    case Mutation::kDropResult: return "dropped result";
    case Mutation::kDuplicateResult: return "duplicated result";
    case Mutation::kLoseStateValue: return "lost state value";
    case Mutation::kMiscountIo: return "miscounted write bytes";
  }
  return "?";
}

// Runs one short round of every workload per mutation and shows that the
// checks pass the engine's own results and fail every mutated set.
int SelfTest(const std::string& work_dir) {
  const Mutation mutations[] = {Mutation::kNone,          Mutation::kChangeValue,
                                Mutation::kShiftTimestamp, Mutation::kDropResult,
                                Mutation::kDuplicateResult, Mutation::kLoseStateValue,
                                Mutation::kMiscountIo};
  int wrong = 0;
  for (Workload w : Workloads()) {
    w.events_per_round = std::min<uint64_t>(w.events_per_round, 20'000);
    for (Mutation m : mutations) {
      // Counts flow through RMW accumulators, not appended values, and a
      // remote store's writes share wchar with its socket.
      if ((m == Mutation::kLoseStateValue && w.kind == QueryKind::kSessionCount) ||
          (m == Mutation::kMiscountIo && w.remote)) {
        continue;
      }
      Runner runner(w, 7, work_dir);
      runner.set_mutation(m);
      RoundStats st;
      std::vector<int64_t> latencies;
      std::string error;
      Status s = runner.SetUp(0);
      if (s.ok()) s = runner.Run(false, &st, &latencies, &error);
      if (!s.ok()) {
        std::printf("self-test %s: %s\n", w.name, s.ToString().c_str());
        return 1;
      }
      const bool ok = error.empty() == (m == Mutation::kNone);
      wrong += ok ? 0 : 1;
      std::printf("self-test %-20s %-23s %s%s%s\n", w.name, MutationName(m),
                  ok ? "ok" : "WRONG", error.empty() ? "" : ": ", error.c_str());
    }
  }
  return wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace flowkv

int main(int argc, char** argv) {
  flowkv::perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") args.workload = v;
    else if (flag == "--seed") args.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") args.trace = std::strcmp(v, "0") != 0;
    else if (flag == "--work-dir") args.work_dir = v;
    else if (flag == "--start-ns") args.start_ns = std::strtoll(v, nullptr, 10);
    else if (flag == "--spans-out") args.spans_out = v;
    else if (flag == "--backend") args.backend = v;
    else if (flag == "--self-test") args.self_test = std::strcmp(v, "0") != 0;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.self_test && !args.work_dir.empty()) {
    return flowkv::perfbench::SelfTest(args.work_dir);
  }
  if (args.workload.empty() || args.work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: flowkv_perfbench --workload W --work-dir D [--seed N] [--seconds S]"
                 " [--trace 0|1] [--start-ns NS] [--spans-out FILE]\n"
                 "       [--backend flowkv|lsm|memory]\n"
                 "       flowkv_perfbench --self-test 1 --work-dir D\n");
    return 2;
  }
  return flowkv::perfbench::RunBenchmark(args);
}
