// Bounded MPMC FIFO with blocking push/pop — the hand-off channel between
// entropy producers and consumers (core::EntropyPool) and a reusable
// backpressure primitive.
//
// Semantics:
//  * push blocks while the buffer is full (backpressure on producers);
//  * pop blocks while the buffer is empty;
//  * close() makes every pending and future push fail immediately, while
//    pops keep draining the remaining items and then fail — so a consumer
//    always sees every item produced before the close.
// FIFO order is global: items come out in the order their pushes completed.
//
// The span calls move many items per lock round trip: push_n publishes a
// whole span at once (it waits for room for all of it, so the span stays
// contiguous in FIFO order), and pop_n takes whatever is buffered up to
// its limit.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace dhtrng::support {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : slots_(capacity == 0 ? 1 : capacity) {}

  std::size_t capacity() const { return slots_.size(); }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Blocking push; returns false (dropping the item) once closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] { return closed_ || count_ < slots_.size(); });
    if (closed_) return false;
    slots_[(head_ + count_) % slots_.size()] = std::move(item);
    ++count_;
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false when full or closed.
  bool try_push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || count_ == slots_.size()) return false;
      slots_[(head_ + count_) % slots_.size()] = std::move(item);
      ++count_;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking push of `items[0..n)` as one contiguous span: waits until
  /// all `n` fit, then publishes them under one lock.  Returns false
  /// (pushing nothing) once closed.  Throws std::invalid_argument when
  /// `n` exceeds the capacity, which no amount of waiting would admit.
  bool push_n(const T* items, std::size_t n) {
    if (n > slots_.size()) {
      throw std::invalid_argument("RingBuffer::push_n: span exceeds capacity");
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_full_.wait(lock, [this, n] {
        return closed_ || slots_.size() - count_ >= n;
      });
      if (closed_) return false;
      const std::size_t tail = (head_ + count_) % slots_.size();
      const std::size_t first = std::min(n, slots_.size() - tail);
      std::copy(items, items + first, slots_.begin() +
                                          static_cast<std::ptrdiff_t>(tail));
      std::copy(items + first, items + n, slots_.begin());
      count_ += n;
    }
    not_empty_.notify_all();  // the span may cover several waiting pops
    return true;
  }

  /// Blocking pop of up to `max` items into `out`: waits for at least one,
  /// then takes everything buffered up to `max`.  Returns the count taken;
  /// 0 only after close() with the buffer drained (or for max == 0).
  std::size_t pop_n(T* out, std::size_t max) {
    if (max == 0) return 0;
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [this] { return closed_ || count_ > 0; });
      n = std::min(max, count_);
      const std::size_t first = std::min(n, slots_.size() - head_);
      const auto head = slots_.begin() + static_cast<std::ptrdiff_t>(head_);
      std::move(head, head + static_cast<std::ptrdiff_t>(first), out);
      std::move(slots_.begin(),
                slots_.begin() + static_cast<std::ptrdiff_t>(n - first),
                out + first);
      head_ = (head_ + n) % slots_.size();
      count_ -= n;
    }
    // Pushers wait for room for whole spans of differing sizes.
    if (n > 0) not_full_.notify_all();
    return n;
  }

  /// Blocking pop; empty optional only after close() with the buffer drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || count_ > 0; });
    if (count_ == 0) return std::nullopt;  // closed and drained
    return take_locked(lock);
  }

  /// Non-blocking pop; empty optional when nothing is buffered.
  std::optional<T> try_pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (count_ == 0) return std::nullopt;
    return take_locked(lock);
  }

  /// Fail pending/future pushes, let pops drain what remains, wake everyone.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

 private:
  std::optional<T> take_locked(std::unique_lock<std::mutex>& lock) {
    T item = std::move(slots_[head_]);
    head_ = (head_ + 1) % slots_.size();
    --count_;
    lock.unlock();
    // All, not one: a woken push_n may still lack room for its span while
    // a single-item push could proceed.
    not_full_.notify_all();
    return item;
  }

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  bool closed_ = false;
};

}  // namespace dhtrng::support
