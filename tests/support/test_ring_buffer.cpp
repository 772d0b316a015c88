#include "support/ring_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <thread>
#include <vector>

namespace dhtrng::support {
namespace {

TEST(RingBuffer, FifoOrderSingleThread) {
  RingBuffer<int> rb(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(rb.try_push(i));
  for (int i = 0; i < 5; ++i) {
    auto v = rb.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(rb.try_pop().has_value());
}

TEST(RingBuffer, WraparoundPreservesOrder) {
  RingBuffer<int> rb(4);
  int next_in = 0, next_out = 0;
  // Interleave pushes and pops so head wraps the 4-slot storage many times.
  for (int round = 0; round < 25; ++round) {
    while (rb.try_push(next_in)) ++next_in;
    for (int i = 0; i < 3; ++i) {
      auto v = rb.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next_out++);
    }
  }
}

TEST(RingBuffer, TryPushFailsWhenFull) {
  RingBuffer<int> rb(2);
  EXPECT_TRUE(rb.try_push(1));
  EXPECT_TRUE(rb.try_push(2));
  EXPECT_FALSE(rb.try_push(3));
  EXPECT_EQ(rb.size(), 2u);
}

TEST(RingBuffer, BackpressureBlocksProducerUntilPop) {
  RingBuffer<int> rb(2);
  ASSERT_TRUE(rb.push(1));
  ASSERT_TRUE(rb.push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    rb.push(3);  // blocks: buffer full
    third_pushed.store(true);
  });
  // The producer cannot complete until a slot frees up.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(rb.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(rb.pop().value(), 2);
  EXPECT_EQ(rb.pop().value(), 3);
}

TEST(RingBuffer, PopBlocksUntilPush) {
  RingBuffer<int> rb(4);
  std::thread consumer([&] {
    auto v = rb.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 42);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  rb.push(42);
  consumer.join();
}

TEST(RingBuffer, CloseWakesBlockedConsumerEmptyHanded) {
  RingBuffer<int> rb(4);
  std::thread consumer([&] { EXPECT_FALSE(rb.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  rb.close();
  consumer.join();
}

TEST(RingBuffer, CloseFailsPushesButDrainsPops) {
  RingBuffer<int> rb(4);
  ASSERT_TRUE(rb.push(7));
  ASSERT_TRUE(rb.push(8));
  rb.close();
  EXPECT_FALSE(rb.push(9));
  EXPECT_FALSE(rb.try_push(9));
  EXPECT_EQ(rb.pop().value(), 7);   // buffered items survive the close
  EXPECT_EQ(rb.pop().value(), 8);
  EXPECT_FALSE(rb.pop().has_value());
}

TEST(RingBuffer, ManyProducersManyConsumersDeliverEverythingOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  RingBuffer<int> rb(16);  // small capacity: forces constant backpressure
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&rb, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(rb.push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> seen(kProducers * kPerProducer, 0);
  std::mutex seen_mutex;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        auto v = rb.pop();
        if (!v) return;
        std::lock_guard<std::mutex> lock(seen_mutex);
        ++seen[static_cast<std::size_t>(*v)];
      }
    });
  }
  for (auto& t : producers) t.join();
  rb.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0),
            kProducers * kPerProducer);
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(RingBuffer, PerProducerOrderIsPreserved) {
  // Global FIFO implies each producer's items arrive in its push order.
  RingBuffer<std::pair<int, int>> rb(8);
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&rb, p] {
      for (int i = 0; i < 500; ++i) ASSERT_TRUE(rb.push({p, i}));
    });
  }
  std::vector<int> last_seen(3, -1);
  std::thread consumer([&] {
    for (;;) {
      auto v = rb.pop();
      if (!v) return;
      EXPECT_EQ(v->second, last_seen[static_cast<std::size_t>(v->first)] + 1);
      last_seen[static_cast<std::size_t>(v->first)] = v->second;
    }
  });
  for (auto& t : producers) t.join();
  rb.close();
  consumer.join();
  for (int last : last_seen) EXPECT_EQ(last, 499);
}

// --- Span calls: push_n publishes a whole span, pop_n takes what is
// --- buffered up to its limit. -----------------------------------------

TEST(RingBufferSpans, FifoOrderAcrossSpans) {
  RingBuffer<int> rb(16);
  const int a[] = {1, 2, 3};
  const int b[] = {4, 5, 6, 7, 8};
  ASSERT_TRUE(rb.push_n(a, 3));
  ASSERT_TRUE(rb.push_n(b, 5));
  EXPECT_EQ(rb.size(), 8u);
  int out[8] = {};
  ASSERT_EQ(rb.pop_n(out, 8), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], i + 1);
  EXPECT_EQ(rb.size(), 0u);
}

TEST(RingBufferSpans, PartialPopsTakeWhatIsBuffered) {
  RingBuffer<int> rb(8);
  const int items[] = {10, 11, 12, 13, 14};
  ASSERT_TRUE(rb.push_n(items, 5));
  int out[8] = {};
  EXPECT_EQ(rb.pop_n(out, 2), 2u);  // limited by the request
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[1], 11);
  EXPECT_EQ(rb.pop_n(out, 8), 3u);  // limited by what is buffered
  EXPECT_EQ(out[0], 12);
  EXPECT_EQ(out[2], 14);
  EXPECT_EQ(rb.pop_n(out, 0), 0u);
}

TEST(RingBufferSpans, WraparoundPreservesOrder) {
  // Capacity 7 against spans of 3 and pops of 4: spans and pops straddle
  // the end of the storage in every phase.
  RingBuffer<int> rb(7);
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 40; ++round) {
    while (rb.size() + 3 <= rb.capacity()) {
      const int span[] = {next_in, next_in + 1, next_in + 2};
      ASSERT_TRUE(rb.push_n(span, 3));
      next_in += 3;
    }
    int out[4] = {};
    const std::size_t got = rb.pop_n(out, 4);
    ASSERT_GT(got, 0u);
    for (std::size_t i = 0; i < got; ++i) EXPECT_EQ(out[i], next_out++);
  }
}

TEST(RingBufferSpans, InteroperatesWithPerItemCalls) {
  RingBuffer<int> rb(6);
  ASSERT_TRUE(rb.push(1));
  const int span[] = {2, 3, 4};
  ASSERT_TRUE(rb.push_n(span, 3));
  EXPECT_EQ(rb.pop().value(), 1);
  int out[3] = {};
  ASSERT_EQ(rb.pop_n(out, 2), 2u);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 3);
  EXPECT_EQ(rb.try_pop().value(), 4);
}

TEST(RingBufferSpans, PushBlocksUntilTheWholeSpanFits) {
  RingBuffer<int> rb(4);
  const int first[] = {1, 2, 3};
  ASSERT_TRUE(rb.push_n(first, 3));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    const int second[] = {4, 5, 6};
    EXPECT_TRUE(rb.push_n(second, 3));  // needs 3 free slots, 1 is free
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(rb.pop().value(), 1);  // 2 free: still not enough
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(rb.pop().value(), 2);
  producer.join();
  EXPECT_TRUE(pushed.load());
  int out[4] = {};
  ASSERT_EQ(rb.pop_n(out, 4), 4u);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(out[3], 6);
}

TEST(RingBufferSpans, SpanLargerThanCapacityIsRejected) {
  RingBuffer<int> rb(4);
  const int items[5] = {};
  EXPECT_THROW(rb.push_n(items, 5), std::invalid_argument);
  EXPECT_EQ(rb.size(), 0u);
}

TEST(RingBufferSpans, CloseFailsPushNButPopNDrainsThenReturnsZero) {
  RingBuffer<int> rb(8);
  const int items[] = {7, 8, 9};
  ASSERT_TRUE(rb.push_n(items, 3));
  rb.close();
  EXPECT_FALSE(rb.push_n(items, 3));
  EXPECT_EQ(rb.size(), 3u);  // a failed push_n adds nothing
  int out[8] = {};
  ASSERT_EQ(rb.pop_n(out, 2), 2u);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 8);
  ASSERT_EQ(rb.pop_n(out, 8), 1u);
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(rb.pop_n(out, 8), 0u);
  EXPECT_EQ(rb.pop_n(out, 8), 0u);
}

TEST(RingBufferSpans, CloseWakesBlockedSpanCalls) {
  RingBuffer<int> rb(4);
  const int items[] = {1, 2, 3};
  ASSERT_TRUE(rb.push_n(items, 3));
  std::thread pusher([&] { EXPECT_FALSE(rb.push_n(items, 3)); });
  RingBuffer<int> empty(4);
  std::thread popper([&] {
    int out[4] = {};
    EXPECT_EQ(empty.pop_n(out, 4), 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  rb.close();
  empty.close();
  pusher.join();
  popper.join();
}

TEST(RingBufferSpans, SpansStayContiguousForALoneConsumer) {
  // Several producers, one consumer popping uneven amounts: the consumed
  // sequence is a concatenation of whole spans, each producer's in order.
  struct Item {
    int producer, span, index, len;
  };
  constexpr int kProducers = 3;
  constexpr int kSpans = 300;
  RingBuffer<Item> rb(12);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&rb, p] {
      for (int s = 0; s < kSpans; ++s) {
        const int len = 1 + (s + 2 * p) % 6;
        Item span[6];
        for (int i = 0; i < len; ++i) span[i] = {p, s, i, len};
        ASSERT_TRUE(rb.push_n(span, static_cast<std::size_t>(len)));
      }
    });
  }
  std::vector<Item> consumed;
  std::thread consumer([&] {
    Item out[5];
    for (std::size_t round = 0;; ++round) {
      const std::size_t got = rb.pop_n(out, 1 + round % 5);
      if (got == 0) return;
      consumed.insert(consumed.end(), out, out + got);
    }
  });
  for (auto& t : producers) t.join();
  rb.close();
  consumer.join();
  std::vector<int> next_span(kProducers, 0);
  std::size_t i = 0;
  while (i < consumed.size()) {
    const Item head = consumed[i];
    ASSERT_EQ(head.index, 0) << "a span was split at item " << i;
    ASSERT_EQ(head.span, next_span[static_cast<std::size_t>(head.producer)]++);
    for (int k = 0; k < head.len; ++k, ++i) {
      ASSERT_LT(i, consumed.size());
      EXPECT_EQ(consumed[i].producer, head.producer);
      EXPECT_EQ(consumed[i].span, head.span);
      EXPECT_EQ(consumed[i].index, k);
    }
  }
  for (int n : next_span) EXPECT_EQ(n, kSpans);
}

TEST(RingBufferSpans, ManyProducersManyConsumersDeliverEverythingOnce) {
  // MPMC over spans: producers push spans of varying length, consumers pop
  // varying maxima; every item arrives exactly once.
  constexpr int kProducers = 4;
  constexpr int kSpans = 400;
  constexpr int kSpanMax = 7;
  RingBuffer<std::pair<int, int>> rb(16);  // small: constant backpressure
  std::vector<int> sent(kProducers, 0);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&rb, &sent, p] {
      int next = 0;
      for (int s = 0; s < kSpans; ++s) {
        const int len = 1 + (s * 5 + p) % kSpanMax;
        std::pair<int, int> span[kSpanMax];
        for (int i = 0; i < len; ++i) span[i] = {p, next++};
        ASSERT_TRUE(rb.push_n(span, static_cast<std::size_t>(len)));
      }
      sent[static_cast<std::size_t>(p)] = next;
    });
  }
  std::mutex seen_mutex;
  std::vector<std::vector<int>> seen(kProducers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&, c] {
      std::pair<int, int> out[9];
      for (std::size_t round = 0;; ++round) {
        const std::size_t max = 1 + (round + static_cast<std::size_t>(c)) % 9;
        const std::size_t got = rb.pop_n(out, max);
        if (got == 0) return;
        std::lock_guard<std::mutex> lock(seen_mutex);
        for (std::size_t i = 0; i < got; ++i) {
          seen[static_cast<std::size_t>(out[i].first)].push_back(out[i].second);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  rb.close();
  for (auto& t : consumers) t.join();
  for (int p = 0; p < kProducers; ++p) {
    std::vector<int>& got = seen[static_cast<std::size_t>(p)];
    ASSERT_EQ(static_cast<int>(got.size()), sent[static_cast<std::size_t>(p)]);
    std::sort(got.begin(), got.end());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], static_cast<int>(i)) << "producer " << p;
    }
  }
}

}  // namespace
}  // namespace dhtrng::support
