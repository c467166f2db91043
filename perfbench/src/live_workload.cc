// The live-ingest workload: one feed thread applies the rest of a
// position feed to a LiveTier at a fixed rate, in batches of kCommitEvery
// updates each acknowledged by one Commit, while a closed-loop query
// client alternates historical queries (below the pre-ingested horizon)
// and fresh queries (the last few ingested instants). After the run the
// tier crashes and is reopened from its journal.
//
// The journal is a file in the work directory whose Sync does not flush
// to the device. Commit holds the tier's exclusive lock across the
// journal sync, so with an fsync the query latencies would follow the
// host disk's fsync latency, which varied between 0.15 ms and about
// 10 ms from one minute to the next (see README.md).
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/query_gen.h"
#include "datagen/random_dataset.h"
#include "live/live_tier.h"
#include "measure.h"
#include "spans.h"
#include "storage/page_backend.h"
#include "util/random.h"
#include "util/trace.h"
#include "workloads.h"

namespace stindex {
namespace perfbench {
namespace {

constexpr size_t kObjects = 10000;
// Set-up ingests every update before this instant; historical queries
// fall below it.
constexpr Time kHorizon = 300;
constexpr size_t kQueriesPerSet = 1000;
// One query client: beside two or more back-to-back readers the tier's
// reader-preferring lock starves the feed (see README.md).
constexpr int kQueryClients = 1;
// Each client's latency samples are made resident before peak_rss_mb's
// reset, with room for this many queries a second, so that they count
// in it only beyond that rate.
constexpr double kSampleRoomPerSecond = 100000.0;
// The feed is open loop, like the position reports of independent
// objects: a batch of kCommitEvery updates is due every
// kCommitEvery / kFeedRate seconds, whether or not the last one is done.
// A closed-loop feed made the query latencies depend on how often it won
// the tier's lock. The rate is low enough that few queries wait for an
// update: at 3000 updates/s query_p99_ms sat where that share crossed 1 %
// and swung with it, and at 500 updates/s the window rates and p99s
// still swung with each run's writer stalls (see README.md).
constexpr double kFeedRate = 100.0;  // updates per second
// Flush policy, the same on every commit compared: the feed commits
// (one journal sync) every 32 applied updates, set-up once at its end,
// and the tier checkpoints once this many journal pages accumulate,
// about every 5 s at kFeedRate.
constexpr size_t kCommitEvery = 32;
constexpr size_t kCheckpointEveryPages = 16;
// The freshest instants a fresh query may ask about, counted back from
// the feed's head.
constexpr Time kFreshInstants = 4;
// Each client keeps about one answer in kSampleEvery (at most
// kMaxSamples) for the after-run checks.
constexpr uint64_t kSampleEvery = 64;
constexpr size_t kMaxSamples = 256;
// After the run and a checkpoint, this many more updates are applied
// before the crash, so every run recovers the same length of journal.
// Their kCrashTail / kCommitEvery commits fill about half of
// kCheckpointEveryPages journal pages, so no checkpoint absorbs them.
constexpr size_t kCrashTail = 256;
// Set-up is repeated this many times per run, and the reopen after the
// crash kReopenReps times; the reported times are medians.
constexpr int kSetupReps = 3;
constexpr int kReopenReps = 7;
constexpr size_t kTraceRingEvents = 1 << 17;

// The feed and each query client run on CPUs of their own, so that how
// often the client waits for the feed's lock does not depend on where the
// scheduler puts them (see README.md). The feed gets the second CPU this
// process may run on, the clients the ones after it.
constexpr int kFeedCpu = 1;

// Pins the calling thread to the `k`-th (from 0) CPU this process may run
// on; does nothing when there are not that many.
void PinToCpu(int k) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || seen++ != k) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    return;
  }
}

LiveTierOptions TierOptions() {
  LiveTierOptions options;
  // Seal eagerly, so that migration runs in the run and few segments wait
  // for the watermark. Every query walks all of those; at capacity 32
  // (about 10 000 pending migration events) the walk's cost per event
  // differed by up to a third from one seed to another (see README.md).
  options.index.capacity = 8;
  options.query_pool_pages = 4096;
  options.checkpoint_every_pages = kCheckpointEveryPages;
  return options;
}

struct LiveInputs {
  std::vector<LiveObservation> stream;
  size_t preingest_end = 0;        // stream[0, preingest_end) is set-up
  std::vector<STQuery> historical;  // below kHorizon
  std::vector<STQuery> shapes;      // areas + durations for fresh queries
};

// The journal's pages, in a file of the work directory, so that they
// count in disk_mb and not in peak_rss_mb. The benchmark owns it, so the
// journal outlives the tier that wrote it; which slots hold a page is
// kept here, beside the file.
class JournalFile {
 public:
  static Result<std::unique_ptr<JournalFile>> Create(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0) {
      return Status::IoError("open " + path + ": " + std::strerror(errno));
    }
    return std::unique_ptr<JournalFile>(new JournalFile(fd, path));
  }
  ~JournalFile() { ::close(fd_); }
  JournalFile(const JournalFile&) = delete;
  JournalFile& operator=(const JournalFile&) = delete;

  Status Read(PageId id, uint8_t* out) const {
    if (!IsAllocated(id)) return Unallocated(id, "read");
    return Checked(::pread(fd_, out, kPageSize, Offset(id)), id);
  }
  Status Write(PageId id, const uint8_t* data) {
    if (id == kInvalidPage) {
      return Status::InvalidArgument("write to kInvalidPage");
    }
    const Status status =
        Checked(::pwrite(fd_, data, kPageSize, Offset(id)), id);
    if (!status.ok()) return status;
    if (id >= allocated_.size()) allocated_.resize(id + 1, false);
    if (!allocated_[id]) {
      allocated_[id] = true;
      ++live_;
    }
    return Status::OK();
  }
  Status Free(PageId id) {
    if (!IsAllocated(id)) return Unallocated(id, "free");
    allocated_[id] = false;
    --live_;
    return Status::OK();
  }
  bool IsAllocated(PageId id) const {
    return id < allocated_.size() && allocated_[id];
  }
  size_t SlotCount() const { return allocated_.size(); }
  size_t LivePageCount() const { return live_; }
  const std::string& path() const { return path_; }

 private:
  JournalFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  static off_t Offset(PageId id) {
    return static_cast<off_t>(id) * static_cast<off_t>(kPageSize);
  }
  static Status Unallocated(PageId id, const char* what) {
    return Status::InvalidArgument("page " + std::to_string(id) + ": " +
                                   what + " of unallocated page");
  }
  static Status Checked(ssize_t bytes, PageId id) {
    if (bytes == static_cast<ssize_t>(kPageSize)) return Status::OK();
    return Status::IoError("journal page " + std::to_string(id) + ": " +
                           (bytes < 0 ? std::strerror(errno) : "short I/O"));
  }

  int fd_;
  std::string path_;
  std::vector<bool> allocated_;
  size_t live_ = 0;
};

// The tier's view of the journal. It counts page writes and syncs and,
// while a trace session is on, times them in "storage"/"wal_write" and
// "storage"/"wal_sync" spans. Sync flushes nothing to the device.
// Abandon() is the crash: like FilePageBackend::Abandon, every later call
// fails and the journal keeps exactly what was written before it.
class JournalView : public PageBackend {
 public:
  explicit JournalView(JournalFile* journal) : journal_(journal) {}

  size_t page_size() const override { return kPageSize; }
  Status Read(PageId id, uint8_t* out) const override {
    if (abandoned_) return Abandoned();
    return journal_->Read(id, out);
  }
  Status Write(PageId id, const uint8_t* data) override {
    if (abandoned_) return Abandoned();
    writes_.fetch_add(1, std::memory_order_relaxed);
    TraceSpan span("storage", "wal_write");
    return journal_->Write(id, data);
  }
  Status Free(PageId id) override {
    if (abandoned_) return Abandoned();
    return journal_->Free(id);
  }
  bool IsAllocated(PageId id) const override {
    return journal_->IsAllocated(id);
  }
  size_t SlotCount() const override { return journal_->SlotCount(); }
  size_t LivePageCount() const override { return journal_->LivePageCount(); }
  Status Sync() override {
    if (abandoned_) return Abandoned();
    syncs_.fetch_add(1, std::memory_order_relaxed);
    TraceSpan span("storage", "wal_sync");
    return Status::OK();
  }
  std::string Name() const override {
    return "journal(" + journal_->path() + ")";
  }

  // Called with the tier quiescent (no update in flight).
  void Abandon() { abandoned_ = true; }
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }

 private:
  static Status Abandoned() {
    return Status::IoError("journal abandoned by a simulated crash");
  }

  JournalFile* journal_;
  bool abandoned_ = false;
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> syncs_{0};
};

struct Tier {
  std::unique_ptr<LiveTier> tier;
  JournalView* journal = nullptr;  // owned by the tier
};

struct SetupTimes {
  double gen = 0, open = 0, preingest = 0;
};

LiveInputs MakeInputs(uint64_t seed) {
  LiveInputs inputs;
  RandomDatasetConfig data;
  data.num_objects = kObjects;
  data.seed = Rng::DeriveSeed(seed, 1);
  inputs.stream = MakeObservationStream(GenerateRandomDataset(data));
  while (inputs.preingest_end < inputs.stream.size() &&
         inputs.stream[inputs.preingest_end].time < kHorizon) {
    ++inputs.preingest_end;
  }
  QuerySetConfig snapshots = MixedSnapshotSet();
  snapshots.count = kQueriesPerSet;
  snapshots.seed = Rng::DeriveSeed(seed, 2);
  QuerySetConfig ranges = SmallRangeSet();
  ranges.count = kQueriesPerSet;
  ranges.seed = Rng::DeriveSeed(seed, 3);
  const std::vector<STQuery> full_a = GenerateQuerySet(snapshots);
  const std::vector<STQuery> full_b = GenerateQuerySet(ranges);
  snapshots.time_domain = kHorizon;
  ranges.time_domain = kHorizon;
  const std::vector<STQuery> hist_a = GenerateQuerySet(snapshots);
  const std::vector<STQuery> hist_b = GenerateQuerySet(ranges);
  for (size_t i = 0; i < kQueriesPerSet; ++i) {
    inputs.historical.push_back(hist_a[i]);
    inputs.historical.push_back(hist_b[i]);
    inputs.shapes.push_back(full_a[i]);
    inputs.shapes.push_back(full_b[i]);
  }
  return inputs;
}

// Opens a tier over `journal` (empty for a new tier, or what a crashed
// tier left behind).
Result<Tier> OpenTier(JournalFile* journal) {
  Tier tier;
  auto view = std::make_unique<JournalView>(journal);
  tier.journal = view.get();
  Result<std::unique_ptr<LiveTier>> opened =
      LiveTier::Open(TierOptions(), std::move(view));
  if (!opened.ok()) return opened.status();
  tier.tier = std::move(opened).value();
  return tier;
}

// Applies the set-up prefix of the feed as one bulk load: a single
// Commit at the end, which triggers one checkpoint.
Status Preingest(const LiveInputs& inputs, LiveTier* tier) {
  for (size_t i = 0; i < inputs.preingest_end; ++i) {
    const Status status = tier->Apply(inputs.stream[i]);
    if (!status.ok()) return status;
  }
  return tier->Commit();
}

void Query(const LiveTier& tier, const STQuery& query,
           std::vector<ObjectId>* out) {
  if (query.IsSnapshot()) {
    tier.SnapshotQuery(query.area, query.range.start, out);
  } else {
    tier.IntervalQuery(query.area, query.range, out);
  }
}

// `shape` moved so that it ends `back` instants before the instant after
// `head`.
STQuery FreshQuery(const STQuery& shape, Time head, Time back) {
  STQuery query = shape;
  const Time end = std::max<Time>(1, head + 1 - back);
  query.range = TimeInterval(std::max<Time>(0, end - shape.range.Duration()),
                             end);
  return query;
}

struct Sample {
  STQuery query;
  std::vector<ObjectId> answer;  // sorted
};

// What one timed phase measured.
struct Phase {
  double seconds = 0.0;
  // The process's peak RSS over the phase, less the latency samples'
  // preallocated storage.
  double peak_rss_mb = 0.0;
  uint64_t queries = 0;
  WindowSummary latency;
  uint64_t rows[2] = {0, 0};     // historical, fresh
  uint64_t queries_by_class[2] = {0, 0};
  uint64_t applied = 0;
  uint64_t commits = 0;
  double feed_seconds = 0.0;
  WindowSummary ack;
  std::vector<double> late_ms;  // per batch: how late the feed started it
  uint64_t checkpoints = 0;  // checkpoint sequence advance over the phase
  uint64_t stalled_calls = 0;  // traced run: commits during which it advanced
  double stall_ms = 0.0;
  uint64_t wal_syncs = 0;
  uint64_t wal_writes = 0;
  bool exhausted = false;
  std::vector<Sample> samples;
};

class LiveRun {
 public:
  LiveRun(const BenchOptions& options, const LiveInputs& inputs, Tier* tier,
          RunResult* result)
      : options_(options), inputs_(inputs), tier_(tier), result_(result),
        cursor_(inputs.preingest_end),
        head_(inputs.stream[inputs.preingest_end - 1].time) {}

  Phase RunPhase(double seconds, bool traced, uint64_t phase_id) {
    Phase phase;
    const uint64_t syncs_before = tier_->journal->syncs();
    const uint64_t writes_before = tier_->journal->writes();
    const uint64_t checkpoint_before = tier_->tier->checkpoint_seq();
    std::vector<WindowedSamples> latency(kQueryClients,
                                         WindowedSamples(seconds));
    std::vector<WindowedSamples> acks(1, WindowedSamples(seconds));
    std::vector<std::array<uint64_t, 4>> counts(kQueryClients);
    std::vector<std::vector<Sample>> samples(kQueryClients);
    size_t sample_bytes = 0;
    for (WindowedSamples& client : latency) {
      sample_bytes += client.Preallocate(kSampleRoomPerSecond);
    }
    std::latch ready(kQueryClients + 2);
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    Clock::time_point start;  // written before `go` is released

    std::thread feed([&] {
      PinToCpu(kFeedCpu);
      ready.count_down();
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      acks[0].Start(start);
      Feed(traced, start, stop, &phase, &acks[0]);
    });
    std::vector<std::thread> clients;
    for (int c = 0; c < kQueryClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(Rng::DeriveSeed(options_.seed, 100 + phase_id * 64 +
                                                   static_cast<uint64_t>(c)));
        WindowedSamples& lat = latency[static_cast<size_t>(c)];
        std::array<uint64_t, 4>& count = counts[static_cast<size_t>(c)];
        count.fill(0);
        PinToCpu(kFeedCpu + 1 + c);
        std::vector<ObjectId> results;
        ready.count_down();
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        lat.Start(start);
        for (uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
          const int fresh = static_cast<int>(k % 2);
          const size_t pick = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(kQueriesPerSet * 2) - 1));
          const STQuery query =
              fresh ? FreshQuery(inputs_.shapes[pick],
                                 head_.load(std::memory_order_acquire),
                                 rng.UniformInt(0, kFreshInstants - 1))
                    : inputs_.historical[pick];
          const Clock::time_point begin = Clock::now();
          if (traced) {
            TraceSpan span("live", "query");
            Query(*tier_->tier, query, &results);
            span.Arg("class", fresh ? "fresh" : "hist");
          } else {
            Query(*tier_->tier, query, &results);
          }
          const Clock::time_point end = Clock::now();
          lat.Add(end, static_cast<double>(NanosBetween(begin, end)) / 1e6);
          count[static_cast<size_t>(fresh)] += 1;
          count[2 + static_cast<size_t>(fresh)] += results.size();
          std::vector<Sample>& mine = samples[static_cast<size_t>(c)];
          if (rng.Next() % kSampleEvery == 0 && mine.size() < kMaxSamples) {
            std::sort(results.begin(), results.end());
            mine.push_back(Sample{query, results});
          }
        }
      });
    }
    ready.arrive_and_wait();
    ResetPeakRss();
    start = Clock::now();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds)));
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& client : clients) client.join();
    phase.seconds = SecondsSince(start);
    feed.join();
    // Read before the summaries below allocate their own copies.
    phase.peak_rss_mb =
        PeakRssMb() - static_cast<double>(sample_bytes) / (1024.0 * 1024.0);

    for (int c = 0; c < kQueryClients; ++c) {
      const size_t i = static_cast<size_t>(c);
      phase.queries += latency[i].Count();
      for (int k = 0; k < 2; ++k) {
        phase.queries_by_class[k] += counts[i][static_cast<size_t>(k)];
        phase.rows[k] += counts[i][2 + static_cast<size_t>(k)];
      }
      phase.samples.insert(phase.samples.end(), samples[i].begin(),
                           samples[i].end());
    }
    result_->attempted += phase.queries;
    phase.latency = WindowSummary::Of(&latency);
    phase.ack = WindowSummary::Of(&acks);
    phase.checkpoints = tier_->tier->checkpoint_seq() - checkpoint_before;
    phase.wal_syncs = tier_->journal->syncs() - syncs_before;
    phase.wal_writes = tier_->journal->writes() - writes_before;
    return phase;
  }

  // Applies `count` more updates with the feed's commit policy (no
  // timing); false once the stream is exhausted or an update failed.
  bool ApplyMore(size_t count) {
    Phase ignored;
    const size_t target = std::min(cursor_ + count, inputs_.stream.size());
    while (cursor_ < target) {
      const size_t before = cursor_;
      if (!ApplyBatch(false, std::min(kCommitEvery, target - cursor_),
                      &ignored, nullptr)) {
        return false;
      }
      if (cursor_ == before) return false;
    }
    return cursor_ == target;
  }

 private:
  // The feed: batches of kCommitEvery updates due at kFeedRate from
  // `start`, each acknowledged by one Commit; ack latency runs from the
  // start of an update's Apply to the return of the Commit covering it.
  // A batch that starts late records how late.
  void Feed(bool traced, Clock::time_point start,
            const std::atomic<bool>& stop, Phase* phase,
            WindowedSamples* acks) {
    const double interval = static_cast<double>(kCommitEvery) / kFeedRate;
    for (uint64_t batch = 0; !stop.load(std::memory_order_relaxed);
         ++batch) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          interval * static_cast<double>(batch)));
      std::this_thread::sleep_until(due);
      if (stop.load(std::memory_order_relaxed)) break;
      phase->late_ms.push_back(
          static_cast<double>(NanosBetween(due, Clock::now())) / 1e6);
      if (cursor_ >= inputs_.stream.size()) {
        phase->exhausted = true;
        break;
      }
      if (!ApplyBatch(traced, kCommitEvery, phase, acks)) break;
    }
    phase->feed_seconds = SecondsSince(start);
  }

  // Runs `body` in a "live"/`name` span when `traced`.
  template <typename F>
  static Status Traced(bool traced, const char* name, F&& body) {
    if (!traced) return body();
    TraceSpan span("live", name);
    return body();
  }

  bool ApplyBatch(bool traced, size_t size, Phase* phase,
                  WindowedSamples* acks) {
    Clock::time_point starts[kCommitEvery];
    size_t n = 0;
    for (; n < size && cursor_ < inputs_.stream.size(); ++n) {
      starts[n] = Clock::now();
      const LiveObservation& update = inputs_.stream[cursor_];
      const Status applied =
          Traced(traced, "apply", [&] { return tier_->tier->Apply(update); });
      ++result_->attempted;
      if (!applied.ok()) {
        result_->Fail("Apply: " + applied.ToString());
        return false;
      }
      ++cursor_;
      head_.store(update.time, std::memory_order_release);
    }
    // Only Commit triggers checkpoints. In a traced run, a Commit during
    // which the checkpoint sequence advanced counts as a checkpoint stall.
    const uint64_t seq = options_.trace ? tier_->tier->checkpoint_seq() : 0;
    const Clock::time_point commit_start = Clock::now();
    const Status committed =
        Traced(traced, "commit", [&] { return tier_->tier->Commit(); });
    const Clock::time_point acked = Clock::now();
    ++phase->commits;
    if (!committed.ok()) {
      result_->Fail("Commit: " + committed.ToString());
      return false;
    }
    if (options_.trace && tier_->tier->checkpoint_seq() != seq) {
      ++phase->stalled_calls;
      phase->stall_ms +=
          static_cast<double>(NanosBetween(commit_start, acked)) / 1e6;
    }
    for (size_t i = 0; acks != nullptr && i < n; ++i) {
      acks->Add(acked,
                static_cast<double>(NanosBetween(starts[i], acked)) / 1e6);
    }
    phase->applied += n;
    return true;
  }

  const BenchOptions& options_;
  const LiveInputs& inputs_;
  Tier* tier_;
  RunResult* result_;
  size_t cursor_;
  std::atomic<Time> head_;
};

// Answers of `samples`' queries on `tier`, sorted.
std::vector<std::vector<ObjectId>> Answers(const LiveTier& tier,
                                           const std::vector<Sample>& samples) {
  std::vector<std::vector<ObjectId>> answers;
  for (const Sample& sample : samples) {
    std::vector<ObjectId> out;
    Query(tier, sample.query, &out);
    std::sort(out.begin(), out.end());
    answers.push_back(std::move(out));
  }
  return answers;
}

}  // namespace

RunResult RunLive(const BenchOptions& options) {
  RunResult result;
  const std::string trace_prefix = options.work_dir + "/live-ingest";
  const std::string journal_path = options.work_dir + "/live-ingest.wal";

  // --- set-up, repeated; the last repetition is served ------------------
  if (options.trace) StartTrace(kSetupTraceEvents);
  std::vector<SetupTimes> reps(kSetupReps);
  std::unique_ptr<LiveInputs> inputs;
  std::unique_ptr<JournalFile> journal;
  Tier tier;  // declared after the journal it views, so it dies first
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SetupTimes& t = reps[static_cast<size_t>(rep)];
    tier = Tier();
    Result<std::unique_ptr<JournalFile>> created =
        JournalFile::Create(journal_path);
    if (!created.ok()) {
      result.Fail("set-up: " + created.status().ToString());
      return result;
    }
    journal = std::move(created).value();
    t.gen = TimeSpan("datagen", "gen", [&] {
      inputs = std::make_unique<LiveInputs>(MakeInputs(options.seed));
    });
    Status status;
    t.open = TimeSpan("live", "open", [&] {
      Result<Tier> opened = OpenTier(journal.get());
      if (opened.ok()) {
        tier = std::move(opened).value();
      } else {
        status = opened.status();
      }
    });
    if (status.ok()) {
      t.preingest = TimeSpan("live", "preingest", [&] {
        status = Preingest(*inputs, tier.tier.get());
      });
    }
    if (!status.ok()) {
      result.Fail("set-up: " + status.ToString());
      return result;
    }
  }
  if (options.trace) StopTrace(trace_prefix + ".setup.trace.json", {});
  std::vector<double> totals, gens, preingests;
  for (const SetupTimes& t : reps) {
    totals.push_back(t.gen + t.open + t.preingest);
    gens.push_back(t.gen);
    preingests.push_back(t.preingest);
  }
  std::printf("  feed: %zu updates, %zu pre-ingested (instants < %lld); "
              "commit every %zu, checkpoint every %zu journal pages\n",
              inputs->stream.size(), inputs->preingest_end,
              static_cast<long long>(kHorizon), kCommitEvery,
              kCheckpointEveryPages);

  // --- timed run ---------------------------------------------------------
  // peak_rss_mb: the served tier's peak over the untraced phase (see
  // RunPhase), without the set-up repetitions before it.
  LiveRun run(options, *inputs, &tier, &result);
  Phase plain, traced;
  if (options.trace) {
    plain = run.RunPhase(options.seconds / 2.0, false, 1);
    StartTrace(kTraceRingEvents);
    traced = run.RunPhase(options.seconds / 2.0, true, 2);
  } else {
    plain = run.RunPhase(options.seconds, false, 0);
  }
  const double journal_mb = FileSizeMb(journal_path);
  {
    const LiveTier::Telemetry t = tier.tier->GetTelemetry();
    std::printf("  tier at the end of the run: %zu live objects, %zu buffered "
                "instants, %zu pending migration events, %zu migrated "
                "segments, %zu tree pages, watermark %lld, head %lld\n",
                t.live_objects, t.buffered_instants, t.pending_events,
                tier.tier->migrated_segments().size(),
                tier.tier->historical().PageCount(),
                static_cast<long long>(t.watermark),
                static_cast<long long>(t.last_time));
  }
  const SpanReport spans =
      options.trace ? StopTrace(trace_prefix + ".run.trace.json",
                                {"live/query", "live/apply", "live/commit"})
                    : SpanReport();
  if (plain.exhausted || traced.exhausted) {
    std::printf("  warning: the feed ran out of updates before the run "
                "ended\n");
  }

  // --- answer checks on the final state ----------------------------------
  std::vector<Sample> samples = plain.samples;
  samples.insert(samples.end(), traced.samples.begin(), traced.samples.end());
  if (options.corrupt_reference && !samples.empty()) {
    samples[0].answer.push_back(static_cast<ObjectId>(kObjects + 1));
  }
  const std::vector<std::vector<ObjectId>> final_answers =
      Answers(*tier.tier, samples);
  for (size_t i = 0; i < samples.size(); ++i) {
    ++result.attempted;
    if (!std::includes(final_answers[i].begin(), final_answers[i].end(),
                       samples[i].answer.begin(), samples[i].answer.end())) {
      result.Fail("sampled answer " + std::to_string(i) +
                  " is not a subset of the final answer");
    }
  }
  for (int k = 0; k < 2; ++k) {
    ++result.attempted;
    if (plain.rows[k] + traced.rows[k] == 0) {
      result.Fail(std::string(k == 0 ? "historical" : "fresh") +
                  " queries returned no rows at all");
    }
  }

  // --- crash and recovery --------------------------------------------------
  // A checkpoint plus a fixed tail, so every run recovers the same length
  // of journal whatever point of a checkpoint cycle the run stopped at.
  ++result.attempted;
  const Status checkpoint = tier.tier->Checkpoint();
  if (!checkpoint.ok()) result.Fail("checkpoint: " + checkpoint.ToString());
  ++result.attempted;
  if (!run.ApplyMore(kCrashTail)) result.Fail("crash tail not applied");
  const std::vector<std::vector<ObjectId>> before_crash =
      Answers(*tier.tier, samples);
  tier.journal->Abandon();
  tier = Tier();
  // Recovery after a committed crash writes nothing, so every reopen
  // reads the same journal. Should one write, later reopens would not,
  // and the measurement stops there.
  std::vector<double> recovery;
  WalReplayStats replay;
  for (int rep = 0; rep < kReopenReps; ++rep) {
    const Clock::time_point start = Clock::now();
    Result<Tier> reopened = OpenTier(journal.get());
    recovery.push_back(SecondsSince(start));
    ++result.attempted;
    if (!reopened.ok()) {
      result.Fail("reopen: " + reopened.status().ToString());
      return result;
    }
    replay = reopened.value().tier->recovered();
    ++result.attempted;
    if (Answers(*reopened.value().tier, samples) != before_crash) {
      result.Fail("recovered tier answers differ from the tier before the "
                  "crash");
    }
    if (reopened.value().journal->writes() != 0) break;
  }
  std::printf("  reopen seconds:");
  for (const double seconds : recovery) std::printf(" %.4f", seconds);
  std::printf("\n");
  const double recovery_s = Median(recovery);

  const WindowSummary& q = plain.latency;
  const WindowSummary& ack = plain.ack;
  const double ingest_ups =
      static_cast<double>(plain.applied) / plain.feed_seconds;
  std::vector<double> late = plain.late_ms;
  const Quantiles lateness = ExactQuantiles(&late);

  const double wal_bytes_per_update =
      PerOp(static_cast<double>(plain.wal_writes * kPageSize), plain.applied);
  std::printf("  %llu queries in %.3f s (%d clients); %zu latency samples: "
              "p50 %.6f ms, p99 %.6f ms, highest supported percentile p%g = "
              "%.6f ms\n",
              static_cast<unsigned long long>(plain.queries), plain.seconds,
              kQueryClients, q.all.samples, q.all.p50, q.all.p99,
              q.all.top_percentile, q.all.top);
  std::printf("  reported: medians over %zu windows of each window's rate "
              "and exact quantiles\n",
              q.windows);
  std::printf("  rows per query: historical %.3f, fresh %.3f\n",
              PerOp(static_cast<double>(plain.rows[0]),
                    plain.queries_by_class[0]),
              PerOp(static_cast<double>(plain.rows[1]),
                    plain.queries_by_class[1]));
  std::printf("  feed: %llu updates acknowledged in %.3f s by %llu commits; "
              "%zu ack samples, highest supported percentile p%g = %.6f ms\n",
              static_cast<unsigned long long>(plain.applied),
              plain.feed_seconds,
              static_cast<unsigned long long>(plain.commits),
              ack.all.samples, ack.all.top_percentile, ack.all.top);
  std::printf("  ingest_ups %.1f 1/s (offered %.0f), ack_p50_ms %.6f, "
              "ack_p99_ms %.6f, wal_bytes_per_update %.1f B; batches started "
              "late by p50 %.3f ms, p99 %.3f ms\n",
              ingest_ups, kFeedRate, ack.p50, ack.p99, wal_bytes_per_update,
              lateness.p50, lateness.p99);
  std::printf("  %llu checkpoints during the run\n",
              static_cast<unsigned long long>(plain.checkpoints +
                                              traced.checkpoints));
  std::printf("  recovery replayed %llu records from %llu pages; %zu answers "
              "sampled\n",
              static_cast<unsigned long long>(replay.records),
              static_cast<unsigned long long>(replay.pages), samples.size());
  if (replay.records < kCrashTail) {
    std::printf("  warning: a checkpoint absorbed part of the crash tail, so "
                "recovery_s measures less replay than intended\n");
  }

  if (!options.trace) {
    result.Add("qps", q.rate, "1/s");
    result.Add("query_p50_ms", q.p50, "ms");
    result.Add("query_p99_ms", q.p99, "ms");
    result.Add("setup_s", Median(totals), "s");
    result.Add("peak_rss_mb", plain.peak_rss_mb, "MB");
    result.Add("disk_mb", journal_mb, "MB");
    result.Add("recovery_s", recovery_s, "s");
    return result;
  }

  result.Add("datagen.gen_s", Median(gens), "s");
  result.Add("live.preingest_s", Median(preingests), "s");
  result.Add("live.apply_ns", spans.Root("live/apply").MeanNs(), "ns");
  result.Add("live.commit_ns", spans.Root("live/commit").MeanNs(), "ns");
  result.Add("live.wal_sync_ns", spans.Span("storage/wal_sync").MeanNs(),
             "ns");
  result.Add("live.wal_syncs",
             PerOp(static_cast<double>(traced.wal_syncs), traced.commits),
             "1/commit");
  result.Add("live.wal_page_writes",
             PerOp(static_cast<double>(traced.wal_writes), traced.commits),
             "1/commit");
  result.Add("live.checkpoints",
             static_cast<double>(plain.checkpoints + traced.checkpoints),
             "count");
  result.Add("live.checkpoint_stall_ms",
             PerOp(plain.stall_ms + traced.stall_ms,
                   plain.stalled_calls + traced.stalled_calls),
             "ms");
  result.Add("live.query_hist_ns", spans.Root("live/query:hist").MeanNs(),
             "ns");
  result.Add("live.query_fresh_ns", spans.Root("live/query:fresh").MeanNs(),
             "ns");
  result.Add("live.rows_per_hist_query",
             PerOp(static_cast<double>(traced.rows[0]),
                   traced.queries_by_class[0]),
             "count");
  result.Add("live.rows_per_fresh_query",
             PerOp(static_cast<double>(traced.rows[1]),
                   traced.queries_by_class[1]),
             "count");
  result.Add("live.replay_records", static_cast<double>(replay.records),
             "count");
  result.Add("live.replay_pages", static_cast<double>(replay.pages), "count");
  result.Add("live.ingest_ups", ingest_ups, "1/s");
  result.Add("live.ack_p50_ms", ack.p50, "ms");
  result.Add("live.ack_p99_ms", ack.p99, "ms");
  result.Add("live.wal_bytes_per_update", wal_bytes_per_update, "B");
  result.Add("live.feed_late_p99_ms", lateness.p99, "ms");
  result.Add("trace.overhead_pct",
             (plain.latency.rate / traced.latency.rate - 1.0) *
                 100.0,
             "%");
  return result;
}

}  // namespace perfbench
}  // namespace stindex
