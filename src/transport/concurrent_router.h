// Thread-safe MPSC message plane: sharded per-receiver mailboxes over
// pooled zero-copy frames.
//
// Design (THE in-process message plane: every session and the serial
// runtime::Network / runtime::AsyncNetwork drives run on it):
//
//   * one bounded mailbox per receiver — senders are many (MPSC), the
//     receiver's consumer is one at a time. A mailbox is one mutex, two
//     condition variables and a fixed circular queue of the logical
//     capacity, allocated once at construction (the steady-state message
//     plane allocates nothing). Every queue access holds the mailbox
//     mutex, so thread-safety analysis sees the whole engine;
//   * per-link FIFO: each sender enqueues its own frames in program order
//     and the mailbox lock orders them;
//   * backpressure: send blocks on a not-full condition when a mailbox is
//     at capacity (a crashed receiver unblocks its senders — frames to the
//     dead are dropped, not queued);
//   * zero-copy: send_row frames straight from the caller's row view into
//     a pooled ref-counted buffer (transport/frame.h); try_recv validates
//     in place and hands back a payload span aliasing that buffer;
//   * fault semantics: sends from crashed parties are dropped silently,
//     frames addressed to a party that crashes are discarded undelivered,
//     revive() re-admits, and an optional fault hook may mutate or drop
//     any frame before it is enqueued (fuzz/corruption testing —
//     parse_frame throws on delivery).
//
// Crash/revive fence: crash(party) must leave the mailbox empty AND keep it
// empty until revive(), even against senders that passed their liveness
// check concurrently with the crash (the frame they carry predates the
// crash and must not survive into the revived session). The fence is
// mutual exclusion: crash() sets the down flag, bumps the mailbox's crash
// count and clears the queue in one critical section, and an enqueue
// decides inside the same mutex — it pushes only if the receiver is up and
// no crash happened since it first entered (a sender parked on
// backpressure across a crash/revive pair sees the count moved and drops
// its frame, counted in frames_dropped). Post-revive mailboxes therefore
// start empty. All waits are predicate loops over state mutated under the
// mutex, so notifying after unlock cannot lose a wakeup (hammered by
// tests/mailbox_stress_test.cpp under TSAN).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/thread_annotations.h"
#include "runtime/transport.h"
#include "runtime/wire.h"
#include "transport/buffer_pool.h"
#include "transport/frame.h"

namespace lsa::transport {

/// A delivered frame: the validated view plus the buffer keeping it alive.
struct Inbound {
  BufferRef buf;
  FrameView view;
};

class ConcurrentRouter final : public lsa::runtime::Transport {
 public:
  /// Headroom resolve-time defaults add on top of a derived fan-in bound —
  /// THE shared constant: server::SessionBase::resolve_queue_capacity adds
  /// the same headroom to its per-session-type bounds, and the router's own
  /// fallback below must agree with the sync session's resolution (asserted
  /// by static_assert in server/aggregation_server.h and by
  /// tests/transport_test.cpp).
  static constexpr std::size_t kCapacityHeadroom = 14;

  /// Default mailbox bound for a router of `num_parties` endpoints (N users
  /// + 1 server): the sync session's worst-case single-phase fan-in
  /// (2N + 2) plus kCapacityHeadroom — identical to what
  /// server::SessionBase::resolve_queue_capacity(0, Session::fanin_bound(N))
  /// derives, so a bare router and a server-owned one agree.
  [[nodiscard]] static constexpr std::size_t default_capacity(
      std::size_t num_parties) {
    const std::size_t users = num_parties > 0 ? num_parties - 1 : 0;
    return 2 * users + 2 + kCapacityHeadroom;
  }

  /// Frame-buffer freelist bound when none is configured (per router).
  static constexpr std::size_t kDefaultPoolRetain = 256;

  /// num_parties includes the server; party ids are 0..num_parties-1.
  /// queue_capacity bounds each receiver's mailbox (backpressure); 0 picks
  /// the derived default_capacity(num_parties). pool_retain bounds the
  /// frame-buffer freelist (0 = kDefaultPoolRetain) — high-fan-in hosts
  /// size it to the expected in-flight frame count so steady-state sends
  /// never touch the allocator.
  explicit ConcurrentRouter(std::size_t num_parties,
                            std::size_t queue_capacity = 0,
                            std::size_t pool_retain = 0)
      : capacity_(queue_capacity == 0 ? default_capacity(num_parties)
                                      : queue_capacity),
        pool_(pool_retain == 0 ? kDefaultPoolRetain : pool_retain) {
    boxes_.reserve(num_parties);
    for (std::size_t i = 0; i < num_parties; ++i) {
      boxes_.push_back(std::make_unique<Mailbox>(capacity_));
    }
  }

  [[nodiscard]] std::size_t num_parties() const { return boxes_.size(); }
  [[nodiscard]] std::size_t queue_capacity() const { return capacity_; }
  [[nodiscard]] BufferPool& pool() { return pool_; }

  // ------------------------------------------------------------- liveness

  /// Marks a party crashed: its future sends are dropped, its undelivered
  /// mailbox is discarded, and senders blocked on its mailbox unblock.
  /// Returns with the mailbox EMPTY (see the crash/revive fence comment
  /// above): no frame sent before this call completes can survive into a
  /// revived session; late racers are counted in frames_dropped.
  void crash(std::size_t party) {
    check_party(party);
    Mailbox& box = *boxes_[party];
    std::size_t discarded = 0;
    {
      lsa::sync::MutexLock lk(box.mu);
      // release: publishes the crash to lock-free is_down readers.
      box.down.store(true, std::memory_order_release);
      ++box.crashes;
      discarded = box.clear();
    }
    // relaxed: telemetry total; the crash fence itself is the mutex.
    dropped_.fetch_add(discarded, std::memory_order_relaxed);
    // Everyone parked here must observe the crash: producers drop their
    // frames, a consumer in recv_wait returns without waiting out its
    // timeout.
    box.not_full.notify_all();
    box.not_empty.notify_all();
  }

  void revive(std::size_t party) {
    check_party(party);
    Mailbox& box = *boxes_[party];
    lsa::sync::MutexLock lk(box.mu);
    // release: publishes the revive to lock-free is_down readers.
    box.down.store(false, std::memory_order_release);
  }

  [[nodiscard]] bool is_down(std::size_t party) const {
    check_party(party);
    // acquire: pairs with crash/revive's release stores. Sender-side
    // liveness is advisory; the receiver-side fence is decided under the
    // mailbox mutex.
    return boxes_[party]->down.load(std::memory_order_acquire);
  }

  // ---------------------------------------------------------------- faults

  /// Called on every frame's bytes before enqueue (the buffer is exclusive
  /// at that point); may mutate them (corruption testing) or return false
  /// to drop the frame (lossy-link testing). Set before traffic starts.
  using FaultHook = std::function<bool(std::span<std::uint8_t>)>;
  void set_fault_hook(FaultHook hook) { hook_ = std::move(hook); }

  // ----------------------------------------------------------------- send

  /// Zero-copy send: frames the row view straight into a pooled buffer.
  void send_row(lsa::runtime::MsgType type, std::uint32_t sender,
                std::uint32_t receiver, std::uint64_t round,
                std::span<const lsa::field::Fp32::rep> payload) override {
    check_party(sender);
    check_party(receiver);
    if (is_down(sender)) return;
    BufferRef frame =
        build_frame(pool_, type, sender, receiver, round, payload);
    enqueue(receiver, std::move(frame));
  }

  /// Receiver field of shared broadcast frames (handlers dispatch on their
  /// own mailbox, never on the header's receiver).
  static constexpr std::uint32_t kBroadcastReceiver = 0xFFFFFFFFu;

  /// Broadcast: the payload is framed ONCE into one ref-counted buffer
  /// (receiver field = kBroadcastReceiver) shared across every live
  /// mailbox — no per-receiver payload writes or CRC passes.
  void broadcast_row(lsa::runtime::MsgType type, std::uint32_t sender,
                     std::uint64_t round,
                     std::span<const lsa::field::Fp32::rep> payload,
                     std::uint32_t num_receivers) override {
    check_party(sender);
    lsa::require(num_receivers <= boxes_.size(),
                 "router: broadcast fan-out out of range");
    if (is_down(sender)) return;
    BufferRef frame = build_frame(pool_, type, sender, kBroadcastReceiver,
                                  round, payload);
    if (hook_ && !hook_(frame.bytes())) {
      // relaxed: monotonic telemetry total, read quiescently.
      dropped_.fetch_add(num_receivers, std::memory_order_relaxed);
      return;
    }
    for (std::uint32_t j = 0; j < num_receivers; ++j) {
      enqueue_built(j, frame);  // shared ref, one buffer
    }
  }

  /// Re-injects a prebuilt frame (receiver read from its header bytes).
  /// No sender-liveness check — the caller owns that policy.
  void send_frame(BufferRef frame) {
    lsa::require<lsa::ProtocolError>(
        frame && frame.size_bytes() >= lsa::runtime::kHeaderBytes,
        "router: undersized frame");
    std::uint32_t receiver = 0;
    std::memcpy(&receiver, frame.bytes().data() + 8, 4);
    check_party(receiver);
    enqueue(receiver, std::move(frame));
  }

  // ----------------------------------------------------------------- recv

  /// Pops and validates the receiver's next frame. Returns false when the
  /// mailbox is empty (always so while the receiver is down). Throws
  /// ProtocolError on a corrupted frame — the frame is consumed either way.
  [[nodiscard]] bool try_recv(std::size_t receiver, Inbound& out) {
    check_party(receiver);
    Mailbox& box = *boxes_[receiver];
    BufferRef buf;
    bool wake_producer = false;
    {
      lsa::sync::MutexLock lk(box.mu);
      if (!box.pop(buf)) return false;
      wake_producer = box.parked > 0;
    }
    deliver(box, std::move(buf), wake_producer, out);
    return true;
  }

  /// Blocking variant: waits up to `timeout` for a frame. Returns false on
  /// timeout or when the receiver is down.
  [[nodiscard]] bool recv_wait(std::size_t receiver, Inbound& out,
                               std::chrono::milliseconds timeout) {
    check_party(receiver);
    Mailbox& box = *boxes_[receiver];
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    BufferRef buf;
    bool wake_producer = false;
    {
      lsa::sync::MutexLock lk(box.mu);
      // Explicit predicate loop (not a wait lambda): the guarded reads
      // stay inside this analyzed critical section.
      ++box.waiting;
      while (box.count == 0 && !box.is_down_locked()) {
        if (box.not_empty.wait_until(lk.native_lock(), deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      --box.waiting;
      // Empty here means timeout or a down receiver (crash cleared it).
      if (!box.pop(buf)) return false;
      wake_producer = box.parked > 0;
    }
    deliver(box, std::move(buf), wake_producer, out);
    return true;
  }

  /// True when every mailbox is empty.
  [[nodiscard]] bool idle() const {
    for (const auto& box : boxes_) {
      lsa::sync::MutexLock lk(box->mu);
      if (box->count != 0) return false;
    }
    return true;
  }

  // relaxed: the four getters below are advisory telemetry snapshots —
  // tests quiesce traffic before asserting exact values.
  [[nodiscard]] std::uint64_t frames_sent() const {
    return sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// High-water mark of any mailbox depth (bounded by queue_capacity).
  [[nodiscard]] std::size_t max_queue_depth() const {
    // relaxed: advisory telemetry snapshot, exact only at quiescence.
    return max_depth_.load(std::memory_order_relaxed);
  }
  /// Senders currently parked on this receiver's backpressure (telemetry;
  /// tests use it to wait for a sender to be provably blocked).
  [[nodiscard]] std::uint32_t parked_senders(std::size_t party) const {
    check_party(party);
    const Mailbox& box = *boxes_[party];
    lsa::sync::MutexLock lk(box.mu);
    return box.parked;
  }

 private:
  /// One receiver's inbox: a fixed circular queue of `count` frames
  /// starting at `head`, sized to the logical capacity once at
  /// construction. Waits are predicate loops over the guarded state, so
  /// notifying after unlock is safe; the waiter counts only skip notify
  /// calls nobody is waiting for.
  struct Mailbox {
    explicit Mailbox(std::size_t capacity) : slots(capacity) {}

    mutable lsa::sync::Mutex mu;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::vector<BufferRef> slots LSA_GUARDED_BY(mu);
    std::size_t head LSA_GUARDED_BY(mu) = 0;
    std::size_t count LSA_GUARDED_BY(mu) = 0;
    /// crash() calls so far: an enqueue that parked across a crash drops
    /// its frame even if revive() ran before it woke.
    std::uint64_t crashes LSA_GUARDED_BY(mu) = 0;
    std::uint32_t parked LSA_GUARDED_BY(mu) = 0;   ///< senders on not_full
    std::uint32_t waiting LSA_GUARDED_BY(mu) = 0;  ///< consumers on not_empty
    /// Written only under mu (crash/revive); is_down reads it lock-free.
    std::atomic<bool> down{false};

    [[nodiscard]] bool is_down_locked() const LSA_REQUIRES(mu) {
      // relaxed: every store to down happens under mu, which we hold.
      return down.load(std::memory_order_relaxed);
    }
    /// True while no crash has hit this mailbox since the caller saw
    /// `crashes == epoch` (and it is not down now).
    [[nodiscard]] bool live_since(std::uint64_t epoch) const
        LSA_REQUIRES(mu) {
      return crashes == epoch && !is_down_locked();
    }
    [[nodiscard]] bool full() const LSA_REQUIRES(mu) {
      return count == slots.size();
    }
    void push(BufferRef frame) LSA_REQUIRES(mu) {
      std::size_t tail = head + count;
      if (tail >= slots.size()) tail -= slots.size();
      slots[tail] = std::move(frame);
      ++count;
    }
    [[nodiscard]] bool pop(BufferRef& out) LSA_REQUIRES(mu) {
      if (count == 0) return false;
      out = std::move(slots[head]);
      if (++head == slots.size()) head = 0;
      --count;
      return true;
    }
    /// Releases every queued frame; returns how many there were.
    std::size_t clear() LSA_REQUIRES(mu) {
      const std::size_t n = count;
      for (BufferRef dead; pop(dead);) dead.reset();
      return n;
    }
  };

  void check_party(std::size_t p) const {
    lsa::require(p < boxes_.size(), "router: endpoint out of range");
  }

  /// Hands a popped frame to the caller. One freed slot admits one parked
  /// producer, so notify_one: a broadcast here is the thundering herd that
  /// flattens throughput at high fan-in. A woken producer whose slot was
  /// taken by a racer just re-parks; crash is the only broadcast.
  void deliver(Mailbox& box, BufferRef buf, bool wake_producer,
               Inbound& out) {
    if (wake_producer) box.not_full.notify_one();
    out.buf = std::move(buf);
    out.view = parse_frame(out.buf);  // throws on corruption
    // relaxed: monotonic telemetry total.
    delivered_.fetch_add(1, std::memory_order_relaxed);
  }

  void enqueue(std::size_t receiver, BufferRef frame) {
    if (hook_ && !hook_(frame.bytes())) {
      // relaxed: monotonic telemetry total.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    enqueue_built(receiver, std::move(frame));
  }

  /// Post-hook enqueue; broadcast fan-out shares one frame across calls.
  /// Blocks (parked, not spinning) while the mailbox is at capacity. The
  /// push-or-drop decision is made under the mailbox mutex, against the
  /// crash count read on entry (the crash fence).
  void enqueue_built(std::size_t receiver, BufferRef frame) {
    Mailbox& box = *boxes_[receiver];
    std::size_t depth = 0;
    bool wake_consumer = false;
    {
      lsa::sync::MutexLock lk(box.mu);
      const std::uint64_t epoch = box.crashes;
      if (box.full() && box.live_since(epoch)) {
        ++box.parked;
        while (box.full() && box.live_since(epoch)) {
          box.not_full.wait(lk.native_lock());
        }
        --box.parked;
      }
      if (box.live_since(epoch)) {
        box.push(std::move(frame));
        depth = box.count;
        wake_consumer = box.waiting > 0;
      }
    }
    if (depth == 0) {  // fenced: the receiver is down or crashed meanwhile
      // relaxed: monotonic telemetry total.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (wake_consumer) box.not_empty.notify_one();
    // relaxed: monotonic telemetry total, and lossy high-water telemetry;
    // no payload ordering rides on either.
    sent_.fetch_add(1, std::memory_order_relaxed);
    std::size_t seen = max_depth_.load(std::memory_order_relaxed);
    while (depth > seen &&
           !max_depth_.compare_exchange_weak(seen, depth,
                                             std::memory_order_relaxed)) {
    }
  }

  std::size_t capacity_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  BufferPool pool_;
  FaultHook hook_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::size_t> max_depth_{0};
};

}  // namespace lsa::transport
