// Cold paths of the calendar queue (see event_queue.h): overflow spill,
// run extraction and sorting, growth, width retune.  Built once at the
// baseline instruction set; the per-tier event loops call into it.
#include "sim/event_queue.h"

#include <algorithm>
#include <bit>

namespace dhtrng::sim {

namespace {

/// Runs up to this length are insertion-sorted; longer ones (a badly
/// mistuned width, before the retune catches it) go to std::sort.
constexpr std::size_t kInsertionSortMax = 32;

void sort_events(SimEvent* r, std::size_t n) {
  if (n > kInsertionSortMax) {
    std::sort(r, r + n, [](const SimEvent& a, const SimEvent& b) {
      return event_before(a, b);
    });
    return;
  }
  for (std::size_t i = 1; i < n; ++i) {
    const SimEvent e = r[i];
    std::size_t j = i;
    while (j > 0 && event_before(e, r[j - 1])) {
      r[j] = r[j - 1];
      --j;
    }
    r[j] = e;
  }
}

}  // namespace

CalendarQueue::CalendarQueue(double bucket_width_ps,
                             std::size_t initial_buckets)
    : width_(bucket_width_ps > 0.0 ? bucket_width_ps : 1.0),
      inv_width_(1.0 / width_) {
  std::size_t n = 1;
  while (n < initial_buckets) n <<= 1;
  reset_arena(n);
}

void CalendarQueue::reset_arena(std::size_t buckets) {
  mask_ = buckets - 1;
  slots_.assign(buckets * kSlots, SimEvent{});
  count_.assign(buckets, 0);
  spill_.assign(buckets, {});
  occ_.assign(buckets >= 64 ? buckets >> 6 : 1, 0);
  stored_ = 0;
}

void CalendarQueue::spill(std::size_t b, const SimEvent& ev) {
  spill_[b].push_back(ev);
  ++count_[b];
}

void CalendarQueue::cancel_in_overflowed(std::size_t b, std::uint64_t seq) {
  // Keep the invariant "spill nonempty only when all kSlots are used": a
  // hole in the arena part is refilled from the spill's last entry.
  std::vector<SimEvent>& sp = spill_[b];
  SimEvent* s = slots_.data() + b * kSlots;
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    if (s[i].seq == seq) {
      s[i] = sp.back();
      sp.pop_back();
      --count_[b];
      --stored_;
      --live_;
      return;
    }
  }
  for (std::size_t i = 0; i < sp.size(); ++i) {
    if (sp[i].seq == seq) {
      sp[i] = sp.back();
      sp.pop_back();
      --count_[b];
      --stored_;
      --live_;
      return;
    }
  }
}

void CalendarQueue::grow_run() {
  run_.resize(std::max<std::size_t>(16, run_.size() * 2));
}

/// Return the run's undrained remainder to its bucket (the extracted
/// ordinal is about to stop being the active one).
void CalendarQueue::flush_run() {
  const std::size_t b = static_cast<std::size_t>(run_ord_ & mask_);
  for (std::size_t i = run_head_; i < run_end_; ++i) store(b, run_[i]);
  run_head_ = 0;
  run_end_ = 0;
  have_run_ = false;
}

/// Find the lowest occupied ordinal from cur_ord_ upward (occupancy
/// bitmap hops over empty buckets) and extract it into the run.  If a
/// full rotation of nonempty buckets yields nothing (their entries all
/// belong to later rotations — a sparse schedule, e.g. a lone slow
/// clock), jump cur_ord_ straight to the minimum occupied ordinal.
/// Precondition: live_ > 0 and the run is drained.
void CalendarQueue::refill_run() {
  run_head_ = 0;
  run_end_ = 0;
  have_run_ = false;
  const std::size_t buckets = bucket_count();
  std::size_t rounds = 0;
  for (;;) {
    if (extract_run(cur_ord_)) return;
    cur_ord_ += 1 + gap_to_next_occupied(
                        static_cast<std::size_t>((cur_ord_ + 1) & mask_));
    ++advances_;
    if (++rounds > buckets) {
      jump_to_min_ord();
      extract_run(cur_ord_);
      return;
    }
  }
}

/// Cyclic distance from bucket index `start` to the nearest nonempty
/// bucket at or after it (0 when `start` itself is nonempty); the bucket
/// count if every bucket is empty.  With fewer than 64 buckets the one
/// bitmap word wraps at the bucket count, not at bit 64.
std::size_t CalendarQueue::gap_to_next_occupied(std::size_t start) const {
  const std::size_t buckets = bucket_count();
  if (buckets < 64) {
    const std::uint64_t word = occ_[0];
    if (word == 0) return buckets;
    const std::uint64_t rotated =
        (word >> start) | (start == 0 ? 0 : word << (buckets - start));
    return static_cast<std::size_t>(std::countr_zero(rotated));
  }
  const std::size_t words = occ_.size();
  const std::size_t w = start >> 6;
  const std::uint64_t first = occ_[w] >> (start & 63);
  if (first) return static_cast<std::size_t>(std::countr_zero(first));
  for (std::size_t k = 1; k <= words; ++k) {
    const std::uint64_t word = occ_[(w + k) & (words - 1)];
    if (word) {
      return (k << 6) - (start & 63) +
             static_cast<std::size_t>(std::countr_zero(word));
    }
  }
  return buckets;
}

/// Move every event of ordinal `ord` out of its bucket into the run,
/// compacting the bucket's other entries (later rotations) into its
/// leading slots, then sort the run into (time, seq) order.  True if the
/// run is nonempty.  All entries of later ordinals are strictly later in
/// time, so the sorted run is a prefix of the global pop order.
bool CalendarQueue::extract_run(std::uint64_t ord) {
  const std::size_t b = static_cast<std::size_t>(ord & mask_);
  const std::uint32_t n = count_[b];
  scanned_ += n;
  if (n == 0) return false;
  if (run_.size() < n) run_.resize(n);
  SimEvent* s = slots_.data() + b * kSlots;
  SimEvent* r = run_.data();
  std::size_t taken = 0;
  std::uint32_t keep = 0;
  const std::uint32_t in_arena = n < kSlots ? n : kSlots;
  for (std::uint32_t i = 0; i < in_arena; ++i) {
    if (ordinal(s[i].time) == ord) {
      r[taken++] = s[i];
    } else {
      s[keep++] = s[i];
    }
  }
  std::uint32_t left = keep;
  if (n > kSlots) {
    // Overflowed bucket: the spill refills the arena slots first.
    std::vector<SimEvent>& sp = spill_[b];
    std::size_t spill_keep = 0;
    for (std::size_t i = 0; i < sp.size(); ++i) {
      const SimEvent e = sp[i];
      if (ordinal(e.time) == ord) {
        r[taken++] = e;
      } else if (keep < kSlots) {
        s[keep++] = e;
      } else {
        sp[spill_keep++] = e;
      }
    }
    sp.resize(spill_keep);
    left = keep + static_cast<std::uint32_t>(spill_keep);
  }
  count_[b] = left;
  stored_ -= taken;
  if (left == 0) occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  if (taken == 0) return false;
  sort_events(r, taken);
  // Charge the sort's n·log n to the work metric: a coarse width makes
  // extraction rare but each sort long, and the retuner has to see that
  // trade-off or it never shrinks the width.
  scanned_ += taken * static_cast<std::uint64_t>(std::bit_width(taken));
  run_end_ = taken;
  run_ord_ = ord;
  have_run_ = true;
  return true;
}

void CalendarQueue::jump_to_min_ord() {
  std::uint64_t min_ord = ~std::uint64_t{0};
  for (std::size_t b = 0; b < count_.size(); ++b) {
    const std::uint32_t n = count_[b];
    const SimEvent* s = slots_.data() + b * kSlots;
    for (std::uint32_t i = 0; i < n && i < kSlots; ++i) {
      min_ord = std::min(min_ord, ordinal(s[i].time));
    }
    for (const SimEvent& e : spill_[b]) {
      min_ord = std::min(min_ord, ordinal(e.time));
    }
  }
  cur_ord_ = min_ord;
}

/// Every bucket-resident event, in bucket order; empties the buckets.
std::vector<SimEvent> CalendarQueue::take_stored() {
  std::vector<SimEvent> all;
  all.reserve(stored_);
  for (std::size_t b = 0; b < count_.size(); ++b) {
    const std::uint32_t n = count_[b];
    const SimEvent* s = slots_.data() + b * kSlots;
    all.insert(all.end(), s, s + (n < kSlots ? n : kSlots));
    all.insert(all.end(), spill_[b].begin(), spill_[b].end());
  }
  return all;
}

/// Quadruple the bucket count and redistribute.  The run is untouched:
/// its events stay addressed by run_ord_, which does not depend on the
/// bucket count.
void CalendarQueue::grow() {
  const std::vector<SimEvent> all = take_stored();
  reset_arena(bucket_count() * 4);
  for (const SimEvent& e : all) {
    store(static_cast<std::size_t>(ordinal(e.time) & mask_), e);
  }
}

/// Periodic width retune: when the measured work per pop (bucket entries
/// examined at extraction + empty buckets advanced) climbs past a few
/// units, the fixed width no longer matches the schedule's event density
/// and the calendar degrades toward a linear scan.  Recompute the width
/// from the median inter-event gap of the live events (the classic
/// calendar-queue self-sizing rule) and rebuild.  Retuning never changes
/// pop order — order is the (time, seq) total order; buckets only
/// accelerate the search — and the trigger depends only on the push/pop
/// sequence, so runs stay deterministic.
void CalendarQueue::maybe_retune() {
  // Pushes may keep the run alive indefinitely (they append while pops
  // advance the head); drop the drained prefix so the buffer stays
  // bounded by the pending count plus one retune window.
  if (run_head_ > 0) {
    std::copy(run_.begin() + static_cast<std::ptrdiff_t>(run_head_),
              run_.begin() + static_cast<std::ptrdiff_t>(run_end_),
              run_.begin());
    run_end_ -= run_head_;
    run_head_ = 0;
  }
  const double window = static_cast<double>(pops_);
  const double avg_work = static_cast<double>(scanned_ + advances_) / window;
  pops_ = 0;
  scanned_ = 0;
  advances_ = 0;
  retune_pops_ = 4096;
  if (live_ < 8 || avg_work <= 4.0) return;

  std::vector<double> times;
  times.reserve(live_);
  for (std::size_t i = run_head_; i < run_end_; ++i) {
    times.push_back(run_[i].time);
  }
  for (std::size_t b = 0; b < count_.size(); ++b) {
    const std::uint32_t n = count_[b];
    const SimEvent* s = slots_.data() + b * kSlots;
    for (std::uint32_t i = 0; i < n && i < kSlots; ++i) {
      times.push_back(s[i].time);
    }
    for (const SimEvent& e : spill_[b]) times.push_back(e.time);
  }
  std::sort(times.begin(), times.end());
  std::vector<double> gaps;
  gaps.reserve(times.size());
  for (std::size_t i = 1; i < times.size(); ++i) {
    if (times[i] > times[i - 1]) gaps.push_back(times[i] - times[i - 1]);
  }
  double new_width;
  if (!gaps.empty()) {
    const auto mid =
        gaps.begin() + static_cast<std::ptrdiff_t>(gaps.size() / 2);
    std::nth_element(gaps.begin(), mid, gaps.end());
    new_width = 3.0 * gaps[gaps.size() / 2];
  } else if (!times.empty()) {
    const double span = times.back() - times.front();
    new_width = span > 0.0 ? span / static_cast<double>(live_) : width_;
  } else {
    new_width = width_;
  }
  new_width = std::clamp(new_width, 1e-3, 1e7);
  rebuild(new_width);
}

/// Re-hash every live event (run included) under a new bucket width,
/// growing the bucket array to at least 2x the live count so one rotation
/// spans the whole pending horizon.
void CalendarQueue::rebuild(double new_width) {
  std::vector<SimEvent> alive = take_stored();
  alive.insert(alive.end(),
               run_.begin() + static_cast<std::ptrdiff_t>(run_head_),
               run_.begin() + static_cast<std::ptrdiff_t>(run_end_));
  run_head_ = 0;
  run_end_ = 0;
  have_run_ = false;
  width_ = new_width;
  inv_width_ = 1.0 / width_;
  std::size_t want = bucket_count();
  while (want < alive.size() * 2) want <<= 1;
  reset_arena(want);
  std::uint64_t min_ord = ~std::uint64_t{0};
  for (const SimEvent& e : alive) {
    const std::uint64_t ord = ordinal(e.time);
    min_ord = std::min(min_ord, ord);
    store(static_cast<std::size_t>(ord & mask_), e);
  }
  cur_ord_ = alive.empty() ? 0 : min_ord;
}

}  // namespace dhtrng::sim
