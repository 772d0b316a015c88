// Calendar (bucket) event queue.
//
// The simulator's schedule is a strict total order on (time, seq): events
// pop in nondecreasing time, ties broken by insertion sequence number.  A
// binary heap gives that order in O(log n) per operation with one heap
// node per event; the calendar queue gives amortized O(1) by hashing each
// event into a time bucket of fixed width and scanning the current bucket
// only.  Because bucket ordinal floor(time / width) is monotone in time,
// the earliest (time, seq) event always lives in the lowest occupied
// ordinal, so the calendar pops in exactly the same order as the heap —
// which is what the differential fuzz tests assert event-for-event.
//
// Storage is one flat arena: bucket b owns the kSlots consecutive slots
// starting at b * kSlots, count_[b] says how many of them hold events, and
// the occupancy bitmap has one bit per nonempty bucket.  An event is the
// SimEvent itself; its ordinal is recomputed from its time whenever it is
// needed, with the same multiply the push used.  A bucket that outgrows
// its slots spills the rest to a per-bucket side vector (a cold path: the
// width retune keeps buckets short).  Cancellation removes the event in
// place — the bucket's last entry fills the hole — so there are no
// tombstones to reclaim.
//
// Pops drain a *run buffer*: when the minimum is needed, every event of
// the lowest occupied ordinal is extracted from its bucket in one pass,
// sorted once (an inline insertion sort: runs hold a few events), and
// subsequent pops just advance a cursor — no per-pop bucket scan, no
// per-pop entry removal.  A push landing inside the current ordinal
// inserts into the sorted run; a push landing *before* it (arbitrary use
// of the public API, never the simulator) flushes the run back first.
// This changes only how the minimum is found, not which event is the
// minimum, so pop order is untouched.
//
// push, cancel and pop_if_due are always inlined into the simulator's
// event loop (sim/simulator_loop.cpp); everything they call out of line is
// a cold path defined in event_queue.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/circuit.h"

namespace dhtrng::sim {

/// A scheduled net transition, as observed by the differential tests.
struct SimEvent {
  double time;
  std::uint64_t seq;
  NetId net;
  bool value;
};

inline bool operator==(const SimEvent& a, const SimEvent& b) {
  return a.time == b.time && a.seq == b.seq && a.net == b.net &&
         a.value == b.value;
}

/// The schedule's strict total order: time, then insertion sequence.
[[gnu::always_inline]] inline bool event_before(const SimEvent& a,
                                                const SimEvent& b) {
  return a.time < b.time || (a.time == b.time && a.seq < b.seq);
}

class CalendarQueue {
 public:
  /// Arena slots per bucket; fuller buckets spill (see the header comment).
  static constexpr std::uint32_t kSlots = 8;

  /// `bucket_width_ps` is the time span hashed into one bucket; the queue
  /// retunes it at runtime from the observed event density, so the
  /// starting value only has to be in the right ballpark.
  explicit CalendarQueue(double bucket_width_ps,
                         std::size_t initial_buckets = 64);

  bool empty() const { return live_ == 0; }
  std::size_t live() const { return live_; }

  [[gnu::always_inline]] void push(double time, std::uint64_t seq, NetId net,
                                   bool value) {
    const std::uint64_t ord = ordinal(time);
    const SimEvent ev{time, seq, net, value};
    ++live_;
    if (have_run_) {
      if (ord == run_ord_) {
        insert_into_run(ev);
        return;
      }
      if (ord < run_ord_) {
        // Earlier than the extracted ordinal (arbitrary API use; the
        // simulator always schedules at or after the current time).  Put
        // the run back in its bucket and fall through to a plain push.
        flush_run();
        cur_ord_ = ord;
      }
    }
    store(static_cast<std::size_t>(ord & mask_), ev);
    if (stored_ > bucket_count() * 8) grow();
  }

  /// Remove the still-queued event pushed as (time, seq).  An event in
  /// the drain run is erased from it; a bucket-resident one is replaced by
  /// its bucket's last entry.  The caller must pass the exact time used at
  /// push (the simulator keys this off its per-net bookkeeping).
  [[gnu::always_inline]] void cancel(double time, std::uint64_t seq) {
    const std::uint64_t ord = ordinal(time);
    if (have_run_ && ord == run_ord_) {
      SimEvent* r = run_.data();
      for (std::size_t i = run_head_; i < run_end_; ++i) {
        if (r[i].seq == seq) {
          for (std::size_t j = i + 1; j < run_end_; ++j) r[j - 1] = r[j];
          --run_end_;
          --live_;
          return;
        }
      }
      return;
    }
    const std::size_t b = static_cast<std::size_t>(ord & mask_);
    const std::uint32_t n = count_[b];
    if (n > kSlots) {
      cancel_in_overflowed(b, seq);
      return;
    }
    SimEvent* s = slots_.data() + b * kSlots;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (s[i].seq == seq) {
        s[i] = s[n - 1];
        count_[b] = n - 1;
        if (n == 1) occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
        --stored_;
        --live_;
        return;
      }
    }
  }

  /// Earliest live event in (time, seq) order, or nullptr when empty.
  /// The pointer stays valid until the next push/cancel/pop.
  const SimEvent* peek() {
    if (run_head_ < run_end_) return &run_[run_head_];
    if (live_ == 0) return nullptr;
    refill_run();
    return &run_[run_head_];
  }

  /// Remove and return the earliest live event (queue must be non-empty).
  SimEvent pop() {
    if (run_head_ >= run_end_) refill_run();
    const SimEvent ev = run_[run_head_++];
    --live_;
    if (++pops_ >= retune_pops_) maybe_retune();
    return ev;
  }

  /// Fused peek+pop for the simulator's run loop: pop the earliest live
  /// event into `out` iff its time is <= `t_ps`.  The common path is a
  /// bounds check and a cursor advance on the sorted run — it reads no
  /// bucket memory at all.
  [[gnu::always_inline]] bool pop_if_due(double t_ps, SimEvent& out) {
    if (run_head_ >= run_end_) {
      if (live_ == 0) return false;
      refill_run();
    }
    const SimEvent& e = run_[run_head_];
    if (e.time > t_ps) return false;
    out = e;
    ++run_head_;
    --live_;
    if (++pops_ >= retune_pops_) maybe_retune();
    return true;
  }

  double bucket_width_ps() const { return width_; }
  std::size_t bucket_count() const {
    return static_cast<std::size_t>(mask_) + 1;
  }
  /// Events held in buckets (arena and spill) plus the undrained run.
  std::size_t stored() const { return stored_ + (run_end_ - run_head_); }

 private:
  /// Bucket ordinal of a time under the current width.  Multiplying by the
  /// cached reciprocal is fine: the ordinal only has to be a monotone
  /// function of time computed the same way everywhere (the width only
  /// changes in rebuild(), which recomputes every ordinal).
  [[gnu::always_inline]] std::uint64_t ordinal(double time) const {
    return static_cast<std::uint64_t>(time * inv_width_);
  }

  /// Append `ev` to bucket `b`: an arena slot if one is free, else the
  /// bucket's spill vector.
  [[gnu::always_inline]] void store(std::size_t b, const SimEvent& ev) {
    const std::uint32_t n = count_[b];
    if (n < kSlots) {
      slots_[b * kSlots + n] = ev;
      count_[b] = n + 1;
    } else {
      spill(b, ev);
    }
    occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
    ++stored_;
  }

  /// Insert into the already-extracted ordinal, keeping the run sorted.
  [[gnu::always_inline]] void insert_into_run(const SimEvent& ev) {
    if (run_end_ == run_.size()) grow_run();
    SimEvent* r = run_.data();
    std::size_t i = run_end_++;
    while (i > run_head_ && event_before(ev, r[i - 1])) {
      r[i] = r[i - 1];
      --i;
    }
    r[i] = ev;
    // The shifted tail counts as minimum-search work: a width so coarse
    // that pushes keep landing inside the extracted ordinal must show up
    // in the retune metric.
    scanned_ += run_end_ - 1 - i;
  }

  // Cold paths (event_queue.cpp).
  void spill(std::size_t b, const SimEvent& ev);
  void cancel_in_overflowed(std::size_t b, std::uint64_t seq);
  void grow_run();
  void flush_run();
  void refill_run();
  std::size_t gap_to_next_occupied(std::size_t start) const;
  bool extract_run(std::uint64_t ord);
  void jump_to_min_ord();
  void grow();
  void maybe_retune();
  void rebuild(double new_width);
  std::vector<SimEvent> take_stored();
  void reset_arena(std::size_t buckets);

  double width_;
  double inv_width_;
  std::uint64_t mask_ = 0;          ///< bucket count - 1 (a power of two)
  std::vector<SimEvent> slots_;     ///< bucket b: [b*kSlots, b*kSlots+kSlots)
  std::vector<std::uint32_t> count_;  ///< events per bucket, spill included
  std::vector<std::vector<SimEvent>> spill_;  ///< overflow past kSlots
  std::vector<std::uint64_t> occ_;  ///< one bit per bucket: nonempty
  std::uint64_t cur_ord_ = 0;
  std::size_t live_ = 0;    ///< queued events (run included)
  std::size_t stored_ = 0;  ///< events in buckets (arena + spill)

  // Drain run: the extracted current ordinal, sorted by (time, seq);
  // run_[run_head_, run_end_) are pending, earlier entries already popped.
  // run_ is sized by grow_run()/extract_run(), never by the hot paths.
  std::vector<SimEvent> run_;
  std::size_t run_head_ = 0;
  std::size_t run_end_ = 0;
  std::uint64_t run_ord_ = 0;
  bool have_run_ = false;

  std::uint64_t pops_ = 0;           ///< pops since the last retune check
  std::uint64_t retune_pops_ = 256;  ///< pops until the next check
  std::uint64_t scanned_ = 0;   ///< bucket entries examined in the window
  std::uint64_t advances_ = 0;  ///< minimum-search bucket jumps in the window
};

}  // namespace dhtrng::sim
