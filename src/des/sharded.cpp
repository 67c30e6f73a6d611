#include "des/sharded.hpp"

#include <algorithm>
#include <utility>

#include "qbase/assert.hpp"

namespace qnetp::des {

namespace {

/// Which Simulator this thread is currently dispatching for, and the end
/// of the conservative window it is allowed to run to. Set around every
/// per-shard run so post() can verify shard affinity and the lookahead
/// contract from the executing thread itself.
struct ExecContext {
  Simulator* sim = nullptr;
  TimePoint window_end = TimePoint::origin();
};
thread_local ExecContext t_exec;

/// RAII for t_exec: a throwing event (assertion failures are exceptions
/// here) must not leave the thread marked as executing.
struct ExecScope {
  ExecScope(Simulator* sim, TimePoint window_end) {
    t_exec = ExecContext{sim, window_end};
  }
  ~ExecScope() { t_exec = ExecContext{}; }
  ExecScope(const ExecScope&) = delete;
  ExecScope& operator=(const ExecScope&) = delete;
};

}  // namespace

ShardedSimulator::ShardedSimulator(std::size_t shards) {
  QNETP_ASSERT_MSG(shards >= 1, "need at least one shard");
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  mailboxes_.resize(shards * shards);
}

ShardedSimulator::~ShardedSimulator() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ShardedSimulator::set_lookahead(Duration lookahead) {
  QNETP_ASSERT_MSG(lookahead > Duration::zero(),
                   "conservative lookahead must be positive");
  lookahead_ = lookahead;
}

void ShardedSimulator::set_thread_init(std::function<void(std::size_t)> fn) {
  QNETP_ASSERT_MSG(workers_.empty(),
                   "set_thread_init after workers already started");
  thread_init_ = std::move(fn);
}

void ShardedSimulator::post(std::size_t src, std::size_t dst, TimePoint at,
                            std::uint64_t key_hi, std::uint64_t key_lo,
                            UniqueFunction fn) {
  QNETP_ASSERT(src < shards_.size() && dst < shards_.size());
  QNETP_ASSERT(static_cast<bool>(fn));
  if (t_exec.sim != nullptr) {
    QNETP_ASSERT_MSG(t_exec.sim == shards_[src].get(),
                     "cross-shard post from a foreign shard");
    // The conservative contract: nothing sent inside a window may arrive
    // before the window ends (otherwise another shard could already have
    // executed past the arrival time).
    QNETP_ASSERT_MSG(at >= t_exec.window_end,
                     "cross-shard event inside the conservative window");
  }
  Mailbox& box = mailboxes_[src * shards_.size() + dst];
  box.entries.push_back(Envelope{at, key_hi, key_lo, box.next_seq++,
                                 std::move(fn)});
}

const Simulator* ShardedSimulator::executing() { return t_exec.sim; }

TimePoint ShardedSimulator::now() const {
  QNETP_ASSERT_MSG(t_exec.sim == nullptr,
                   "global clock read from an executing event; "
                   "read the shard's own clock");
  TimePoint min = shards_[0]->now();
  for (const auto& s : shards_) min = std::min(min, s->now());
  return min;
}

std::uint64_t ShardedSimulator::total_executed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->events_executed();
  return total;
}

std::uint64_t ShardedSimulator::events_executed() const {
  return total_executed();
}

std::size_t ShardedSimulator::events_pending() const {
  std::size_t pending = 0;
  for (const auto& s : shards_) pending += s->events_pending();
  for (const auto& box : mailboxes_) pending += box.entries.size();
  return pending;
}

std::size_t ShardedSimulator::inject_mailboxes() {
  const std::size_t S = shards_.size();
  std::size_t injected = 0;
  struct Item {
    std::size_t src;
    Envelope env;
  };
  std::vector<Item> items;
  for (std::size_t dst = 0; dst < S; ++dst) {
    items.clear();
    for (std::size_t src = 0; src < S; ++src) {
      Mailbox& box = mailboxes_[src * S + dst];
      for (Envelope& e : box.entries) {
        items.push_back(Item{src, std::move(e)});
      }
      box.entries.clear();
    }
    if (items.empty()) continue;
    // Canonical merge order: arrival time, the caller's stable key (for
    // ClassicalNetwork: directed channel + per-channel sequence), source
    // shard, then mailbox order. A pure function of the traffic — never
    // of which worker got scheduled first.
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      if (a.env.at != b.env.at) return a.env.at < b.env.at;
      if (a.env.key_hi != b.env.key_hi) return a.env.key_hi < b.env.key_hi;
      if (a.env.key_lo != b.env.key_lo) return a.env.key_lo < b.env.key_lo;
      if (a.src != b.src) return a.src < b.src;
      return a.env.seq < b.env.seq;
    });
    for (Item& it : items) {
      QNETP_ASSERT_MSG(it.env.at >= shards_[dst]->now(),
                       "cross-shard event arrived in the destination's past");
      shards_[dst]->schedule_at(it.env.at, std::move(it.env.fn));
      ++injected;
    }
  }
  return injected;
}

void ShardedSimulator::run_shard_window(std::size_t shard,
                                        TimePoint window_end) {
  Simulator& sim = *shards_[shard];
  // After a mid-window stop() the stopping shard's clock lags the others;
  // never run a shard backwards (injected events are still >= its clock).
  const TimePoint end = std::max(window_end, sim.now());
  ExecScope scope(&sim, end);
  sim.run_until(end);
}

void ShardedSimulator::ensure_workers() {
  if (shards_.size() <= 1 || !workers_.empty()) return;
  workers_.reserve(shards_.size() - 1);
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void ShardedSimulator::worker_loop(std::size_t shard) {
  if (thread_init_) thread_init_(shard);
  std::uint64_t seen = 0;
  for (;;) {
    TimePoint end;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return shutdown_ || epoch_ != seen; });
      if (shutdown_) return;
      seen = epoch_;
      end = window_end_;
    }
    run_shard_window(shard, end);
    {
      std::lock_guard<std::mutex> lk(mu_);
      --running_;
      if (running_ == 0) cv_done_.notify_one();
    }
  }
}

std::uint64_t ShardedSimulator::run_until(TimePoint horizon) {
  QNETP_ASSERT_MSG(t_exec.sim == nullptr,
                   "run_until is not reentrant from an executing event");
  stop_.store(false, std::memory_order_relaxed);
  const std::uint64_t start = total_executed();
  const std::size_t S = shards_.size();

  if (S == 1) {
    inject_mailboxes();
    run_shard_window(0, horizon);
    return total_executed() - start;
  }

  ensure_workers();
  for (;;) {
    if (stop_.load(std::memory_order_relaxed)) break;
    inject_mailboxes();
    TimePoint t_next = TimePoint::max();
    std::size_t active = 0;       // shards with an event in this window
    std::size_t active_shard = 0;
    for (std::size_t i = 0; i < S; ++i) {
      t_next = std::min(t_next, shards_[i]->next_event_time());
    }
    if (t_next == TimePoint::max() || t_next > horizon) break;
    TimePoint end = horizon;
    if (lookahead_.has_value()) {
      const TimePoint capped = t_next + *lookahead_;
      if (capped < end) end = capped;
    }
    for (std::size_t i = 0; i < S; ++i) {
      if (shards_[i]->next_event_time() <= end) {
        ++active;
        active_shard = i;
      }
    }
    if (active <= 1) {
      // Solo window: all runnable events live on one shard; execute it on
      // the driver thread and skip the barrier round-trip entirely.
      run_shard_window(active_shard, end);
      for (std::size_t i = 0; i < S; ++i) {
        if (i != active_shard && shards_[i]->now() < end) {
          shards_[i]->run_until(end);  // clock advance only
        }
      }
    } else {
      {
        std::lock_guard<std::mutex> lk(mu_);
        window_end_ = end;
        ++epoch_;
        running_ = S - 1;
      }
      cv_work_.notify_all();
      run_shard_window(0, end);
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_done_.wait(lk, [this] { return running_ == 0; });
      }
    }
  }

  if (!stop_.load(std::memory_order_relaxed) &&
      horizon != TimePoint::max()) {
    // Queues drained before the horizon: advance every clock to it, same
    // as Simulator::run_until.
    for (auto& s : shards_) {
      if (s->now() < horizon) s->run_until(horizon);
    }
  }
  return total_executed() - start;
}

std::uint64_t ShardedSimulator::run() { return run_until(TimePoint::max()); }

void ShardedSimulator::stop() {
  stop_.store(true, std::memory_order_relaxed);
  // Stop the shard this thread is currently dispatching (if any) after
  // the current event; remote shards finish their window first.
  if (t_exec.sim != nullptr) t_exec.sim->stop();
}

}  // namespace qnetp::des
