// ShardedSimulator: conservative windows, canonical mailbox merge,
// lookahead enforcement, stop/resume and worker thread plumbing.
#include "des/sharded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <vector>

#include "qbase/assert.hpp"
#include "qbase/units.hpp"

namespace qnetp::des {
namespace {

using namespace qnetp::literals;

TEST(Sharded, SingleShardPassthrough) {
  ShardedSimulator ssim(1);
  std::vector<int> order;
  ssim.shard(0).schedule(2_ms, [&] { order.push_back(2); });
  ssim.shard(0).schedule(1_ms, [&] { order.push_back(1); });
  const auto ran = ssim.run_until(TimePoint::origin() + 5_ms);
  EXPECT_EQ(ran, 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(ssim.now(), TimePoint::origin() + 5_ms);
  EXPECT_EQ(ssim.events_executed(), 2u);
}

TEST(Sharded, EmptyRunAdvancesToHorizon) {
  ShardedSimulator ssim(2);
  ssim.set_lookahead(1_ms);
  ssim.run_until(TimePoint::origin() + 7_ms);
  EXPECT_EQ(ssim.now(), TimePoint::origin() + 7_ms);
  EXPECT_EQ(ssim.shard(0).now(), TimePoint::origin() + 7_ms);
  EXPECT_EQ(ssim.shard(1).now(), TimePoint::origin() + 7_ms);
}

TEST(Sharded, MailboxCountsAsPendingUntilInjected) {
  ShardedSimulator ssim(2);
  ssim.set_lookahead(1_ms);
  bool ran = false;
  ssim.post(0, 1, TimePoint::origin() + 2_ms, 0, 0, [&] { ran = true; });
  EXPECT_EQ(ssim.events_pending(), 1u);
  ssim.run_until(TimePoint::origin() + 5_ms);
  EXPECT_TRUE(ran);
  EXPECT_EQ(ssim.events_pending(), 0u);
}

TEST(Sharded, MailboxMergeOrderIsCanonical) {
  // Envelopes injected into one destination at the same instant must
  // execute in (key_hi, key_lo, src, seq) order no matter the order the
  // posts were made in.
  ShardedSimulator ssim(3);
  ssim.set_lookahead(1_ms);
  std::vector<int> order;
  const TimePoint at = TimePoint::origin() + 2_ms;
  ssim.post(1, 0, at, /*key_hi=*/9, /*key_lo=*/1, [&] { order.push_back(4); });
  ssim.post(1, 0, at, /*key_hi=*/2, /*key_lo=*/7, [&] { order.push_back(2); });
  ssim.post(2, 0, at, /*key_hi=*/2, /*key_lo=*/7, [&] { order.push_back(3); });
  ssim.post(2, 0, at, /*key_hi=*/1, /*key_lo=*/5, [&] { order.push_back(1); });
  // Same key + src: per-mailbox sequence breaks the tie in post order.
  ssim.post(1, 0, at, /*key_hi=*/9, /*key_lo=*/1, [&] { order.push_back(5); });
  ssim.run_until(TimePoint::origin() + 5_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Sharded, CrossShardPingPongMatchesSingleShard) {
  // The same logical program — a message bouncing between two parties
  // with 300 us latency — must produce identical event timestamps when
  // the parties share one shard and when they are split across two.
  const auto run_program = [](std::size_t shards) {
    ShardedSimulator ssim(shards);
    ssim.set_lookahead(100_us);
    const std::size_t a = 0;
    const std::size_t b = shards > 1 ? 1 : 0;
    std::vector<TimePoint> hits;  // solo windows: driver thread only
    struct Bounce {
      ShardedSimulator* ssim;
      std::vector<TimePoint>* hits;
      std::size_t from, to;
      int remaining;
      void operator()() const {
        const Simulator* self = ShardedSimulator::executing();
        ASSERT_NE(self, nullptr);
        const TimePoint now = self->now();
        hits->push_back(now);
        if (remaining <= 0) return;
        Bounce next{ssim, hits, to, from, remaining - 1};
        if (from != to) {
          // Cross-shard: through the timestamped mailbox, as the
          // classical fabric does.
          ssim->post(from, to, now + 300_us, 1, 1, std::move(next));
        } else {
          ssim->shard(to).schedule_at(now + 300_us, std::move(next));
        }
      }
    };
    ssim.shard(a).schedule(100_us,
                           Bounce{&ssim, &hits, a, b, /*remaining=*/8});
    ssim.run_until(TimePoint::origin() + 10_ms);
    return hits;
  };
  const auto one = run_program(1);
  const auto two = run_program(2);
  EXPECT_EQ(one.size(), 9u);
  EXPECT_EQ(one, two);
}

TEST(Sharded, PostInsideWindowMustRespectLookahead) {
  ShardedSimulator ssim(2);
  ssim.set_lookahead(1_ms);
  ssim.shard(0).schedule(1_ms, [&] {
    // Arrival before the window end (now + lookahead) breaks the
    // conservative contract and must be rejected loudly.
    ssim.post(0, 1, ssim.shard(0).now() + 10_us, 0, 0, [] {});
  });
  EXPECT_THROW(ssim.run_until(TimePoint::origin() + 5_ms), AssertionError);
}

TEST(Sharded, NowIsTheSlowestShardClock) {
  // No cached clock: however the shards were driven, now() is the instant
  // every one of them has reached.
  ShardedSimulator ssim(2);
  ssim.shard(0).run_until(TimePoint::origin() + 3_ms);
  ssim.shard(1).run_until(TimePoint::origin() + 2_ms);
  EXPECT_EQ(ssim.now(), TimePoint::origin() + 2_ms);
}

TEST(Sharded, NowReadFromAnEventAsserts) {
  // Inside an event the global clock is not the event's time; a handler
  // reads its own shard's clock instead.
  ShardedSimulator ssim(1);
  ssim.shard(0).schedule(1_ms, [&] { (void)ssim.now(); });
  EXPECT_THROW(ssim.run_until(TimePoint::origin() + 5_ms), AssertionError);
}

TEST(Sharded, PostFromForeignShardAsserts) {
  ShardedSimulator ssim(2);
  ssim.set_lookahead(1_ms);
  ssim.shard(0).schedule(1_ms, [&] {
    // The executing shard is 0; claiming the envelope originates from
    // shard 1 would let two threads write one mailbox.
    ssim.post(1, 0, ssim.shard(0).now() + 10_ms, 0, 0, [] {});
  });
  EXPECT_THROW(ssim.run_until(TimePoint::origin() + 5_ms), AssertionError);
}

TEST(Sharded, StopFromEventHaltsAndResumes) {
  ShardedSimulator ssim(2);
  ssim.set_lookahead(1_ms);
  std::vector<int> ran;  // all events live on shard 0: driver thread
  ssim.shard(0).schedule(1_ms, [&] {
    ran.push_back(1);
    ssim.stop();
  });
  ssim.shard(0).schedule(40_ms, [&] { ran.push_back(2); });
  ssim.run_until(TimePoint::origin() + 50_ms);
  EXPECT_EQ(ran, (std::vector<int>{1}));
  EXPECT_EQ(ssim.events_pending(), 1u);
  EXPECT_LT(ssim.now(), TimePoint::origin() + 50_ms);

  // A fresh run_until clears the stop and finishes the remaining work.
  ssim.run_until(TimePoint::origin() + 50_ms);
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
  EXPECT_EQ(ssim.now(), TimePoint::origin() + 50_ms);
}

TEST(Sharded, ThreadInitRunsOncePerWorker) {
  ShardedSimulator ssim(3);
  ssim.set_lookahead(1_ms);
  std::mutex mu;
  std::vector<std::size_t> inited;
  ssim.set_thread_init([&](std::size_t shard) {
    std::lock_guard<std::mutex> lk(mu);
    inited.push_back(shard);
  });
  // Give every shard work at the same instant so the barrier path (which
  // spawns the workers) is exercised.
  for (std::size_t i = 0; i < 3; ++i) {
    ssim.shard(i).schedule(1_ms, [] {});
    ssim.shard(i).schedule(2_ms, [] {});
  }
  ssim.run_until(TimePoint::origin() + 5_ms);
  ssim.run_until(TimePoint::origin() + 6_ms);  // no re-init on later runs
  std::lock_guard<std::mutex> lk(mu);
  std::sort(inited.begin(), inited.end());
  // Shard 0 runs on the driver thread; only workers 1 and 2 init.
  EXPECT_EQ(inited, (std::vector<std::size_t>{1, 2}));
}

TEST(Sharded, ExecutedCountInvariantAcrossShardCounts) {
  const auto run_program = [](std::size_t shards) {
    ShardedSimulator ssim(shards);
    ssim.set_lookahead(1_ms);
    for (std::size_t s = 0; s < shards; ++s) {
      for (int i = 0; i < 5; ++i) {
        ssim.shard(s).schedule(Duration::ms(1 + i), [] {});
      }
    }
    ssim.run_until(TimePoint::origin() + 10_ms);
    return ssim.events_executed();
  };
  EXPECT_EQ(run_program(1) * 4, run_program(4));  // 5 events per shard
}

}  // namespace
}  // namespace qnetp::des
