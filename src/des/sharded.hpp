// Conservative-parallel sharded DES kernel.
//
// A ShardedSimulator owns S independent des::Simulator event loops (each
// keeping its own indexed 4-ary heap) and runs them in lock-step time
// windows. The conservative-synchronization argument is classic
// Chandy-Misra-Bryant, specialized to the null-message-free windowed
// form: if every cross-shard interaction is delayed by at least the
// lookahead L (here: the minimum propagation delay of any classical
// channel whose endpoints live on different shards), then all shards can
// safely execute the window [T, min(horizon, T + L)] in parallel, where T
// is the global minimum pending-event time — no event executed inside the
// window can cause another shard to receive anything before the window
// ends.
//
// Cross-shard events never touch a foreign heap directly. The sender
// appends to a single-writer per-(src, dst) mailbox; at the window
// barrier the driver thread drains all mailboxes and injects the entries
// into the destination shards in a canonical order — (arrival time,
// caller-supplied key, source shard, mailbox sequence) — so the merged
// schedule is a pure function of the traffic, never of thread timing.
// That is what keeps aggregate digests bit-identical across shard counts.
//
// Threading model: shard 0 runs on the driver thread; shards 1..S-1 each
// get a persistent worker thread released per window through a
// generation-counted barrier. S == 1 never spawns threads or takes a
// lock. A window whose pending events all live on one shard is run
// inline on the driver thread ("solo window"), skipping the barrier.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "des/simulator.hpp"
#include "des/unique_function.hpp"
#include "qbase/units.hpp"

namespace qnetp::des {

class ShardedSimulator {
 public:
  explicit ShardedSimulator(std::size_t shards = 1);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  Simulator& shard(std::size_t i) {
    QNETP_ASSERT(i < shards_.size());
    return *shards_[i];
  }
  const Simulator& shard(std::size_t i) const {
    QNETP_ASSERT(i < shards_.size());
    return *shards_[i];
  }

  /// The conservative window bound: no cross-shard post may arrive less
  /// than `lookahead` after the instant it was sent. Unset (the default)
  /// means "no cross-shard traffic exists": windows extend to the run
  /// horizon, and any mid-window post trips an assertion.
  void set_lookahead(Duration lookahead);
  std::optional<Duration> lookahead() const { return lookahead_; }

  /// Hook run once at the start of each *worker* thread (shards
  /// 1..S-1; shard 0 executes on the driver thread). Used to install
  /// per-thread log clocks. Must be set before the first multi-shard run.
  void set_thread_init(std::function<void(std::size_t shard)> fn);

  /// Schedule `fn` at absolute time `at` on shard `dst`, from shard `src`.
  /// Callable from an event executing on shard `src` (then `at` must be
  /// at or beyond the current window end — guaranteed when
  /// at = send_time + d with d >= lookahead) or from the driver thread
  /// between runs. (key_hi, key_lo) is the caller's stable merge key;
  /// entries are injected at the barrier ordered by
  /// (at, key_hi, key_lo, src, per-mailbox seq).
  void post(std::size_t src, std::size_t dst, TimePoint at,
            std::uint64_t key_hi, std::uint64_t key_lo, UniqueFunction fn);

  /// The global clock: the minimum shard clock, the instant every shard
  /// has fully executed up to. Driver-thread use between runs only: an
  /// executing event reads its own shard's clock (asserted).
  TimePoint now() const;

  /// Run all shards until `horizon` (inclusive, matching
  /// Simulator::run_until) or until every queue and mailbox drains.
  /// Returns total events executed across shards.
  std::uint64_t run_until(TimePoint horizon);
  /// Run until all queues and mailboxes drain completely.
  std::uint64_t run();

  /// Request an orderly stop. From an executing event, the calling
  /// shard stops after the current event; other shards finish the
  /// in-flight window (at most lookahead of simulated time) before the
  /// driver loop exits.
  void stop();

  /// Sum of events executed across shards — invariant under the shard
  /// count, since sharding only re-partitions the same event set.
  std::uint64_t events_executed() const;
  /// Pending events across all shard heaps plus undelivered mailbox
  /// entries. Driver-thread use only.
  std::size_t events_pending() const;

  /// The Simulator whose event is currently executing on this thread
  /// (nullptr outside dispatch). Shard-local components assert with this
  /// that they are only ever entered from their own shard.
  static const Simulator* executing();

 private:
  struct Envelope {
    TimePoint at;
    std::uint64_t key_hi = 0;
    std::uint64_t key_lo = 0;
    std::uint64_t seq = 0;
    UniqueFunction fn;
  };
  /// Single-writer: only the thread executing shard `src` (or the driver
  /// thread between windows) appends; only the driver thread drains, at
  /// the barrier.
  struct Mailbox {
    std::vector<Envelope> entries;
    std::uint64_t next_seq = 1;
  };

  void ensure_workers();
  void worker_loop(std::size_t shard);
  void run_shard_window(std::size_t shard, TimePoint window_end);
  std::size_t inject_mailboxes();
  std::uint64_t total_executed() const;

  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<Mailbox> mailboxes_;  // [src * S + dst]
  std::optional<Duration> lookahead_;
  std::function<void(std::size_t)> thread_init_;
  std::atomic<bool> stop_{false};

  // Window barrier (only used when shard_count() > 1).
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  TimePoint window_end_ = TimePoint::origin();
  std::size_t running_ = 0;
  bool shutdown_ = false;
};

}  // namespace qnetp::des
