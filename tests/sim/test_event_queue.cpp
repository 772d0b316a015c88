// Unit tests for the calendar/bucket event queue: pop order equals the
// (time, seq) total order regardless of bucket width, cancellation
// behaves, sparse schedules trigger the rotation fallback, growth/retune
// never perturb ordering, and the flat arena's overflow spill keeps
// order through extraction and cancellation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "support/rng.h"

namespace dhtrng::sim {
namespace {

std::vector<SimEvent> drain(CalendarQueue& q) {
  std::vector<SimEvent> out;
  while (!q.empty()) {
    if (q.peek() == nullptr) {
      ADD_FAILURE() << "live count and peek() disagree";
      break;
    }
    out.push_back(q.pop());
  }
  return out;
}

void expect_sorted(const std::vector<SimEvent>& evs) {
  for (std::size_t i = 1; i < evs.size(); ++i) {
    const bool ok = evs[i - 1].time < evs[i].time ||
                    (evs[i - 1].time == evs[i].time &&
                     evs[i - 1].seq < evs[i].seq);
    ASSERT_TRUE(ok) << "pop order violated at " << i << ": (" << evs[i - 1].time
                    << "," << evs[i - 1].seq << ") before (" << evs[i].time
                    << "," << evs[i].seq << ")";
  }
}

/// A CalendarQueue driven in lockstep with a sorted-oracle list of the
/// pending events: every pop must return the oracle's (time, seq) minimum.
class OracleQueue {
 public:
  explicit OracleQueue(double width, std::size_t buckets = 64)
      : q_(width, buckets) {}

  void push(double time, std::uint64_t seq) {
    const NetId net = static_cast<NetId>(seq % 13);
    const bool value = seq % 2 == 0;
    q_.push(time, seq, net, value);
    pending_.push_back({time, seq, net, value});
  }

  void cancel(double time, std::uint64_t seq) {
    q_.cancel(time, seq);
    const auto it =
        std::find_if(pending_.begin(), pending_.end(),
                     [&](const SimEvent& e) { return e.seq == seq; });
    if (it != pending_.end()) pending_.erase(it);
  }

  testing::AssertionResult pop_matches() {
    if (pending_.empty()) return testing::AssertionFailure() << "oracle empty";
    const auto min = std::min_element(pending_.begin(), pending_.end(),
                                      event_before);
    const SimEvent want = *min;
    pending_.erase(min);
    if (q_.empty()) return testing::AssertionFailure() << "queue empty";
    const SimEvent got = q_.pop();
    if (!(got == want)) {
      return testing::AssertionFailure()
             << "popped (" << got.time << ", " << got.seq << "), oracle ("
             << want.time << ", " << want.seq << ")";
    }
    if (q_.live() != pending_.size() || q_.stored() != pending_.size()) {
      return testing::AssertionFailure()
             << "live " << q_.live() << ", stored " << q_.stored()
             << ", oracle " << pending_.size();
    }
    return testing::AssertionSuccess();
  }

  testing::AssertionResult drain_matches() {
    while (!pending_.empty()) {
      const testing::AssertionResult r = pop_matches();
      if (!r) return r;
    }
    if (!q_.empty()) return testing::AssertionFailure() << "queue not empty";
    return testing::AssertionSuccess();
  }

  CalendarQueue& queue() { return q_; }

 private:
  CalendarQueue q_;
  std::vector<SimEvent> pending_;
};

TEST(CalendarQueue, PopsInTimeOrder) {
  CalendarQueue q(10.0);
  support::Xoshiro256 rng(1);
  for (std::uint64_t s = 0; s < 500; ++s) {
    q.push(rng.uniform(0.0, 5000.0), s, static_cast<NetId>(s % 7), s % 2 == 0);
  }
  auto evs = drain(q);
  ASSERT_EQ(evs.size(), 500u);
  expect_sorted(evs);
}

TEST(CalendarQueue, EqualTimesBreakTiesBySeq) {
  CalendarQueue q(10.0);
  // Push equal-time events in scrambled seq order.
  const std::uint64_t seqs[] = {5, 1, 9, 3, 7, 2, 8, 4, 6, 0};
  for (std::uint64_t s : seqs) q.push(123.0, s, 0, false);
  auto evs = drain(q);
  ASSERT_EQ(evs.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(evs[i].seq, i);
}

TEST(CalendarQueue, MatchesHeapSemanticsUnderRandomWorkload) {
  // Oracle: sort the surviving (time, seq) pairs; the queue must pop the
  // same sequence through an interleaved push/pop/cancel workload.
  for (std::uint64_t seed : {7u, 19u, 42u}) {
    CalendarQueue q(25.0);
    support::Xoshiro256 rng(seed);
    std::vector<SimEvent> expected;
    std::uint64_t seq = 0;
    double now = 0.0;
    std::vector<SimEvent> popped;
    for (int step = 0; step < 4000; ++step) {
      const double r = rng.uniform();
      if (r < 0.55 || q.empty()) {
        const double t = now + rng.uniform(0.0, 400.0);
        const NetId net = static_cast<NetId>(rng.below(11));
        const bool val = rng.below(2) == 1;
        q.push(t, seq, net, val);
        expected.push_back({t, seq, net, val});
        ++seq;
      } else if (r < 0.85) {
        const SimEvent ev = q.pop();
        EXPECT_GE(ev.time, now);
        now = ev.time;
        popped.push_back(ev);
      } else if (!expected.empty()) {
        // Cancel a random still-pending event (ignore already-popped).
        const std::size_t pick = rng.below(expected.size());
        const std::uint64_t victim = expected[pick].seq;
        const bool already_popped =
            std::any_of(popped.begin(), popped.end(),
                        [&](const SimEvent& e) { return e.seq == victim; });
        if (!already_popped) {
          q.cancel(expected[pick].time, victim);
          expected.erase(expected.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      }
      if (!q.empty()) {
        ASSERT_NE(q.peek(), nullptr);
      }
    }
    auto rest = drain(q);
    popped.insert(popped.end(), rest.begin(), rest.end());
    std::sort(expected.begin(), expected.end(),
              [](const SimEvent& a, const SimEvent& b) {
                return a.time != b.time ? a.time < b.time : a.seq < b.seq;
              });
    ASSERT_EQ(popped.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < popped.size(); ++i) {
      ASSERT_TRUE(popped[i] == expected[i]) << "seed " << seed << " pos " << i;
    }
  }
}

TEST(CalendarQueue, CancelPeekedMinimumReScans) {
  CalendarQueue q(10.0);
  q.push(5.0, 0, 1, true);
  q.push(9.0, 1, 2, false);
  ASSERT_EQ(q.peek()->net, 1u);  // cache the minimum...
  q.cancel(5.0, 0);              // ...then cancel it
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(q.peek()->net, 2u);
  EXPECT_EQ(q.pop().time, 9.0);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, CancelNonMinimumKeepsPeek) {
  CalendarQueue q(10.0);
  q.push(5.0, 0, 1, true);
  q.push(9.0, 1, 2, false);
  ASSERT_EQ(q.peek()->net, 1u);
  q.cancel(9.0, 1);
  EXPECT_EQ(q.peek()->net, 1u);
  EXPECT_EQ(q.live(), 1u);
}

TEST(CalendarQueue, SparseScheduleJumpsToDistantEvent) {
  // One event millions of widths ahead: the rotation fallback must find
  // it without scanning bucket-by-bucket forever.
  CalendarQueue q(1.0, 16);
  q.push(5.0e7, 0, 3, true);
  q.push(9.0e7, 1, 4, false);
  const SimEvent* top = q.peek();
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->time, 5.0e7);
  EXPECT_EQ(q.pop().net, 3u);
  EXPECT_EQ(q.pop().net, 4u);
}

TEST(CalendarQueue, GrowsUnderLoadAndKeepsOrder) {
  CalendarQueue q(10.0, 4);
  support::Xoshiro256 rng(3);
  for (std::uint64_t s = 0; s < 2000; ++s) {
    q.push(rng.uniform(0.0, 1000.0), s, 0, false);
  }
  EXPECT_GT(q.bucket_count(), 4u);  // grow() must have triggered
  auto evs = drain(q);
  ASSERT_EQ(evs.size(), 2000u);
  expect_sorted(evs);
}

TEST(CalendarQueue, RetunePreservesOrderOnMistunedWidth) {
  // Start with a width 10^6 times too wide so every event hashes into one
  // bucket; the retune window (checked every few thousand pops) must fix
  // the width without ever changing pop order.
  CalendarQueue q(1.0e6);
  support::Xoshiro256 rng(11);
  std::uint64_t seq = 0;
  double now = 0.0;
  for (int i = 0; i < 64; ++i) q.push(rng.uniform(0.0, 100.0), seq++, 0, false);
  double prev_t = -1.0;
  std::uint64_t prev_seq = 0;
  for (int i = 0; i < 20000; ++i) {
    const SimEvent ev = q.pop();
    ASSERT_TRUE(ev.time > prev_t || (ev.time == prev_t && ev.seq > prev_seq));
    prev_t = ev.time;
    prev_seq = ev.seq;
    now = ev.time;
    q.push(now + rng.uniform(0.5, 3.0), seq++, 0, false);
  }
  EXPECT_LT(q.bucket_width_ps(), 1.0e6) << "retune never fired";
}

TEST(CalendarQueue, EntriesAreReclaimedAfterPop) {
  CalendarQueue q(10.0);
  for (int round = 0; round < 100; ++round) {
    for (std::uint64_t s = 0; s < 8; ++s) {
      q.push(round * 100.0 + static_cast<double>(s), s, 0, false);
    }
    while (!q.empty()) q.pop();
  }
  // Popped entries leave the buckets immediately: stored() counts queued
  // entries, so a drained queue stores nothing.
  EXPECT_EQ(q.stored(), 0u);
}

// The runner-up cache: the scan records second place, pop/cancel promote
// it, and pushes between the minimum and the runner-up displace it.  All
// of that is invisible except through pop order, so drive the exact
// displacement sequences and assert the order.
TEST(CalendarQueue, RunnerUpPromotionKeepsOrderThroughCancelAndPush) {
  CalendarQueue q(100.0);  // wide bucket: all of these share one ordinal
  q.push(10.0, 0, 0, false);
  q.push(20.0, 1, 0, false);
  q.push(30.0, 2, 0, false);
  ASSERT_EQ(q.peek()->time, 10.0);  // scan: peek=10, runner=20

  // Push between peek and runner: 15 must displace 20 as second place.
  q.push(15.0, 3, 0, false);
  // Push a new minimum: 5 becomes peek, 10 the runner.
  q.push(5.0, 4, 0, false);
  EXPECT_EQ(q.peek()->time, 5.0);

  // Cancel the minimum: the runner (10) must be promoted, not re-scanned
  // into a wrong candidate.
  q.cancel(5.0, 4);
  EXPECT_EQ(q.peek()->time, 10.0);

  auto evs = drain(q);
  ASSERT_EQ(evs.size(), 4u);
  const double want[] = {10.0, 15.0, 20.0, 30.0};
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(evs[i].time, want[i]);
}

// pop_if_due is the simulator's fused peek+pop: it must pop exactly the
// events at or before the horizon, in order, and leave the rest.
TEST(CalendarQueue, PopIfDueStopsAtHorizon) {
  CalendarQueue q(10.0);
  support::Xoshiro256 rng(7);
  for (std::uint64_t s = 0; s < 300; ++s) {
    q.push(rng.uniform(0.0, 1000.0), s, 0, false);
  }
  std::vector<SimEvent> due;
  SimEvent ev;
  while (q.pop_if_due(500.0, ev)) due.push_back(ev);
  expect_sorted(due);
  for (const SimEvent& e : due) EXPECT_LE(e.time, 500.0);
  ASSERT_FALSE(q.empty());
  EXPECT_GT(q.peek()->time, 500.0);
  auto rest = drain(q);
  expect_sorted(rest);
  EXPECT_EQ(due.size() + rest.size(), 300u);
}

// Width 10, 64 buckets: ordinal k lives in bucket k % 64, so ordinals 5,
// 69 and 133 share bucket 5.
constexpr std::size_t kRotation = 64;
constexpr double kWidth = 10.0;
double at(std::uint64_t ord, double frac) {
  return (static_cast<double>(ord) + frac) * kWidth;
}

TEST(CalendarQueue, ArenaOverflowWhileRunExtracted) {
  OracleQueue o(kWidth);
  std::uint64_t seq = 0;
  for (int i = 0; i < 3; ++i) o.push(at(5, 0.1 * (i + 1)), seq++);
  ASSERT_TRUE(o.pop_matches());  // extracts ordinal 5 into the run
  // Overflow bucket 5 while ordinal 5 is the extracted run: two later
  // rotations interleaved, more events than the bucket has slots.
  const std::size_t over = 2 * CalendarQueue::kSlots + 3;
  for (std::size_t i = 0; i < over; ++i) {
    const std::uint64_t ord = 5 + kRotation * (i % 2 == 0 ? 1 : 2);
    o.push(at(ord, 0.9 - 0.04 * static_cast<double>(i)), seq++);
  }
  // Pushes into the run's own ordinal and into a neighbouring bucket.
  o.push(at(5, 0.75), seq++);
  o.push(at(5, 0.05), seq++);
  o.push(at(6, 0.5), seq++);
  EXPECT_EQ(o.queue().stored(), o.queue().live());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(o.pop_matches());
  // Ordinal 69 has been extracted out of the overflowed bucket; refill the
  // bucket past its slots again before draining.
  for (std::size_t i = 0; i < over; ++i) {
    o.push(at(5 + 3 * kRotation, 0.01 * static_cast<double>(i)), seq++);
  }
  EXPECT_TRUE(o.drain_matches());
}

TEST(CalendarQueue, EqualTimeTiesInsideExtractedRun) {
  OracleQueue o(kWidth);
  for (std::uint64_t s : {4u, 2u, 6u}) o.push(40.0, s);
  o.push(41.0, 1);
  o.push(40.0, 3);
  ASSERT_TRUE(o.pop_matches());  // extracts ordinal 4: ties at 40.0
  // Equal-time pushes into the extracted run, in and out of seq order,
  // on both sides of the queued ties.
  for (std::uint64_t s : {9u, 5u, 7u, 8u}) o.push(40.0, s);
  o.push(41.0, 0);
  ASSERT_TRUE(o.pop_matches());
  ASSERT_TRUE(o.pop_matches());
  o.push(40.0, 10);
  EXPECT_TRUE(o.drain_matches());
}

TEST(CalendarQueue, CancelInsideRunAndOverflowedBucket) {
  OracleQueue o(kWidth);
  std::uint64_t seq = 0;
  for (int i = 0; i < 6; ++i) o.push(at(5, 0.1 * (i + 1)), seq++);
  ASSERT_TRUE(o.pop_matches());  // run: ordinal 5, seqs 1..5 pending
  o.cancel(at(5, 0.3), 2);       // middle of the run
  o.cancel(at(5, 0.2), 1);       // the run's next pop
  // Overflow bucket 5 (ordinal 69) and cancel both an arena-resident
  // entry (the first pushed) and a spilled one (the last pushed).
  std::vector<std::pair<double, std::uint64_t>> bucket;
  for (std::size_t i = 0; i < CalendarQueue::kSlots + 4; ++i) {
    bucket.emplace_back(at(5 + kRotation, 0.05 * static_cast<double>(i)),
                        seq);
    o.push(bucket.back().first, seq++);
  }
  o.cancel(bucket.front().first, bucket.front().second);
  o.cancel(bucket.back().first, bucket.back().second);
  o.cancel(bucket[CalendarQueue::kSlots].first,
           bucket[CalendarQueue::kSlots].second);
  // A plain (non-overflowed) bucket too.
  o.push(at(7, 0.5), seq++);
  o.push(at(7, 0.6), seq);
  o.cancel(at(7, 0.6), seq++);
  ASSERT_TRUE(o.pop_matches());
  o.cancel(at(5, 0.6), 5);  // the run's last entry
  EXPECT_TRUE(o.drain_matches());
}

TEST(CalendarQueue, RandomWorkloadWithOverflowingBuckets) {
  // A width far too coarse for the event density: buckets overflow their
  // slots all the time (until the retune narrows the width), with cancels
  // landing in the run, the arena and the spill.
  for (std::uint64_t seed : {3u, 5u, 8u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    OracleQueue o(200.0);
    support::Xoshiro256 rng(seed);
    std::vector<std::pair<double, std::uint64_t>> live;
    std::uint64_t seq = 0;
    double now = 0.0;
    for (int step = 0; step < 6000; ++step) {
      const double r = rng.uniform();
      if (r < 0.5 || live.empty()) {
        const double t = now + rng.uniform(0.0, 400.0);
        o.push(t, seq);
        live.emplace_back(t, seq++);
      } else if (r < 0.85) {
        ASSERT_TRUE(o.pop_matches());
        // The oracle popped the minimum; keep `live` in step with it.
        const auto min = std::min_element(live.begin(), live.end());
        now = min->first;
        live.erase(min);
      } else {
        const std::size_t pick = rng.below(live.size());
        o.cancel(live[pick].first, live[pick].second);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    EXPECT_TRUE(o.drain_matches());
  }
}

TEST(CalendarQueue, SmallBucketCountWrapsAtBucketCount) {
  // 16 buckets: ordinals 18 and 66 share bucket 2.  After ordinal 1 is
  // popped, the search from bucket 3 must wrap at 16 buckets (reaching
  // ordinal 18), not at the 64 bits of the occupancy word (which would
  // land on ordinal 66 first).
  OracleQueue o(kWidth, 16);
  o.push(at(1, 0.5), 0);
  o.push(at(18, 0.5), 1);
  o.push(at(66, 0.5), 2);
  EXPECT_TRUE(o.drain_matches());
}

}  // namespace
}  // namespace dhtrng::sim
