// Discrete-event scheduler with a virtual microsecond clock.
//
// Events at equal timestamps run in scheduling order (FIFO), which makes
// whole-system runs fully deterministic for a given seed.
//
// Implementation: a flat 4-ary min-heap of 24-byte {at, seq, slot} keys,
// ordered by (time, seq). `seq` is allocated monotonically and never
// reused, so it is the FIFO tie-break at equal timestamps (exactly the
// order the earlier std::map<pair<Time, id>> and std::function-heap
// implementations produced — seed replay stays byte-identical).
//
// Callables live in a free-listed slab of cells, one per pending event; the
// heap only moves keys. A key is live while its cell still holds the same
// seq: firing or cancelling an event empties the cell and returns it to the
// free list, which turns every key pointing at it into a tombstone. Tombstones
// stay in the heap until they surface (O(1) cancel); to bound heap garbage
// the heap is compacted in place whenever more than half of it is dead.
//
// An EventId is `generation << 32 | slot`. A cell's generation advances
// every time its event fires or is cancelled, so a stale or never-issued
// id never matches a live cell and cancel() of it is a guaranteed no-op,
// even after the cell was reused by a later event.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace spider {

class EventQueue {
 public:
  /// Move-only `void()` callable stored inline: no heap allocation per
  /// event. A callable that does not fit is a compile-time error.
  class Fn {
   public:
    static constexpr std::size_t kInlineBytes = 128;

    Fn() = default;
    template <typename F>
      requires(!std::same_as<std::remove_cvref_t<F>, Fn> &&
               std::invocable<std::remove_cvref_t<F>&>)
    Fn(F&& f) {  // NOLINT(google-explicit-constructor): lambdas convert implicitly
      using D = std::remove_cvref_t<F>;
      static_assert(sizeof(D) <= kInlineBytes,
                    "EventQueue::Fn: callable exceeds the inline buffer; capture less");
      static_assert(alignof(D) <= alignof(std::max_align_t),
                    "EventQueue::Fn: callable is over-aligned");
      static_assert(std::is_nothrow_move_constructible_v<D>,
                    "EventQueue::Fn: callable must be nothrow-movable");
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kOps<D>;
    }
    Fn(Fn&& o) noexcept : ops_(o.ops_) {
      if (ops_) {
        ops_->relocate(buf_, o.buf_);
        o.ops_ = nullptr;
      }
    }
    Fn& operator=(Fn&& o) noexcept {
      if (this != &o) {
        reset();
        ops_ = o.ops_;
        if (ops_) {
          ops_->relocate(buf_, o.buf_);
          o.ops_ = nullptr;
        }
      }
      return *this;
    }
    Fn(const Fn&) = delete;
    Fn& operator=(const Fn&) = delete;
    ~Fn() { reset(); }

    void operator()() { ops_->call(buf_); }
    explicit operator bool() const { return ops_ != nullptr; }
    void reset() {
      if (ops_) {
        ops_->destroy(buf_);
        ops_ = nullptr;
      }
    }

   private:
    struct Ops {
      void (*call)(void*);
      void (*relocate)(void* dst, void* src);  // move-construct into dst, destroy src
      void (*destroy)(void*);
    };
    template <typename D>
    static constexpr Ops kOps = {
        [](void* p) { (*static_cast<D*>(p))(); },
        [](void* dst, void* src) {
          ::new (dst) D(std::move(*static_cast<D*>(src)));
          static_cast<D*>(src)->~D();
        },
        [](void* p) { static_cast<D*>(p)->~D(); },
    };

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops* ops_ = nullptr;
  };

  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  /// Schedules `fn` at absolute time `at` (clamped to now). Returns an id
  /// usable with cancel(). Amortized O(1): a new event later than
  /// everything pending (the common case) never sifts.
  EventId schedule_at(Time at, Fn fn);
  /// Schedules `fn` after `delay` from now.
  EventId schedule_after(Duration delay, Fn fn) { return schedule_at(now_ + delay, std::move(fn)); }

  /// Cancels a pending event; no-op if already fired, cancelled or never
  /// issued. O(1): the heap key becomes a tombstone swept out lazily.
  void cancel(EventId id);

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const { return live_; }
  /// Heap slots currently occupied (live + tombstones); the compaction
  /// invariant keeps this below 2x pending() + a small constant.
  [[nodiscard]] std::size_t heap_slots() const { return heap_.size(); }

  // Lifetime scheduler counters (plain u64 increments on paths that already
  // touch the event's cell, so the hot-loop cost is noise; exported via
  // World::refresh_platform_metrics()).
  [[nodiscard]] std::uint64_t scheduled_total() const { return scheduled_; }
  [[nodiscard]] std::uint64_t fired_total() const { return fired_; }
  [[nodiscard]] std::uint64_t cancelled_total() const { return cancelled_; }

  /// Timestamp of the earliest live event, or nullopt when none is
  /// pending. Sweeps tombstones off the root (behaviour-neutral); realtime
  /// drivers use this to bound how long they may block on socket readiness.
  [[nodiscard]] std::optional<Time> next_time();

  /// Runs the earliest event; returns false if none pending.
  bool run_next();
  /// Runs all events with time <= t, then sets now() = t.
  void run_until(Time t);
  void run_for(Duration d) { run_until(now_ + d); }
  /// Runs until the queue drains or `max_events` were processed.
  void run_all(std::size_t max_events = 100'000'000);

 private:
  struct Key {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Cell {
    std::uint64_t seq = 0;  // seq of the pending event here; 0 = free
    std::uint32_t gen = 1;  // advances on every release; never 0
    std::uint32_t next_free = 0;
    Fn fn;
  };
  static bool before(const Key& a, const Key& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }
  [[nodiscard]] bool live(const Key& k) const { return cells_[k.slot].seq == k.seq; }
  /// Empties `slot`'s cell and puts it on the free list.
  void release(std::uint32_t slot);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Pops dead keys off the root until the minimum is live (or empty).
  void drop_dead_root();
  void pop_root();
  void maybe_compact();

  static constexpr std::uint32_t kNoFree = ~std::uint32_t{0};

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t live_ = 0;
  std::vector<Key> heap_;
  std::vector<Cell> cells_;
  std::uint32_t free_head_ = kNoFree;
};

}  // namespace spider
