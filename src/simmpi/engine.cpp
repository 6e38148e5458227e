#include "simmpi/engine.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "simmpi/comm.hpp"
#include "support/error.hpp"

namespace vsensor::simmpi {

double RunResult::makespan() const {
  double m = 0.0;
  for (const auto& r : ranks) m = std::max(m, r.finish_time);
  return m;
}

double RunResult::total_comp_time() const {
  double s = 0.0;
  for (const auto& r : ranks) s += r.comp_time;
  return s;
}

double RunResult::total_mpi_time() const {
  double s = 0.0;
  for (const auto& r : ranks) s += r.mpi_time;
  return s;
}

namespace {

// Polls of a ready flag before a waiting rank parks. Most rendezvous partners
// arrive within a few scheduler slices, so a short yield loop saves the
// sleep/wake round trip through the kernel; yielding (not spinning on a
// pause) keeps the loop cheap when rank threads outnumber the CPUs.
constexpr int kYieldTries = 100;

}  // namespace

Engine::Engine(Config cfg) : cfg_(std::move(cfg)) {
  VS_CHECK_MSG(cfg_.ranks > 0, "need at least one rank");
  VS_CHECK_MSG(cfg_.ranks_per_node > 0, "ranks_per_node must be positive");
  const auto ranks = static_cast<size_t>(cfg_.ranks);
  inboxes_ = std::make_unique<Inbox[]>(ranks);
  parking_ = std::make_unique<Parking[]>(ranks);
  arrivals_ = std::make_unique<Arrival[]>(ranks);
}

Engine::~Engine() = default;

// A channel (src, dst, tag) lives in the inbox of dst, so a send locks the
// destination's inbox and a receive locks its own.
Engine::P2PEntryPtr Engine::post_send(int src, int dst, int tag, uint64_t bytes,
                                      double now) {
  P2PEntryPtr matched;
  {
    Inbox& inbox = inboxes_[static_cast<size_t>(dst)];
    std::lock_guard<std::mutex> lock(inbox.mu);
    check_not_aborted();
    auto& queue = inbox.channels[{src, tag}];
    for (auto& entry : queue) {
      if (entry->has_receiver && !entry->has_sender) {
        // Whichever side posts second checks the sizes (see post_recv), so a
        // mismatch is caught whatever order the rank threads run in.
        VS_CHECK_MSG(entry->bytes == bytes,
                     "send/recv size mismatch on channel (src,dst,tag)");
        entry->has_sender = true;
        entry->sender_time = now;
        matched = entry;
        try_complete(matched, queue);
        break;
      }
    }
    if (!matched) {
      auto entry = std::make_shared<P2PEntry>();
      entry->has_sender = true;
      entry->sender_time = now;
      entry->bytes = bytes;
      queue.push_back(entry);
      return entry;
    }
  }
  wake(dst);  // the receiver posted first and may be parked on the entry
  return matched;
}

Engine::P2PEntryPtr Engine::post_recv(int src, int dst, int tag, uint64_t bytes,
                                      double now) {
  P2PEntryPtr matched;
  {
    Inbox& inbox = inboxes_[static_cast<size_t>(dst)];
    std::lock_guard<std::mutex> lock(inbox.mu);
    check_not_aborted();
    auto& queue = inbox.channels[{src, tag}];
    for (auto& entry : queue) {
      if (entry->has_sender && !entry->has_receiver) {
        VS_CHECK_MSG(entry->bytes == bytes,
                     "send/recv size mismatch on channel (src,dst,tag)");
        entry->has_receiver = true;
        entry->receiver_time = now;
        matched = entry;
        try_complete(matched, queue);
        break;
      }
    }
    if (!matched) {
      auto entry = std::make_shared<P2PEntry>();
      entry->has_receiver = true;
      entry->receiver_time = now;
      entry->bytes = bytes;
      queue.push_back(entry);
      return entry;
    }
  }
  wake(src);  // the sender posted first and may be parked on the entry
  return matched;
}

void Engine::try_complete(const P2PEntryPtr& entry, std::deque<P2PEntryPtr>& queue) {
  // Caller holds the inbox mutex of the entry's destination.
  if (!(entry->has_sender && entry->has_receiver)) return;
  const double match_time = std::max(entry->sender_time, entry->receiver_time);
  const double cost =
      p2p_cost(cfg_.net, entry->bytes) * cfg_.congestion.factor_at(match_time);
  entry->done_time = match_time + cost;
  entry->ready.store(1, std::memory_order_release);
  const auto it = std::find(queue.begin(), queue.end(), entry);
  if (it != queue.end()) queue.erase(it);
}

double Engine::await_p2p(int rank, const P2PEntryPtr& entry) {
  await_ready(rank, entry->ready, 1,
              "simMPI: point-to-point operation timed out (deadlock?)");
  return entry->done_time;
}

// Collectives take no lock. Each rank writes its own arrival cell, then
// counts itself in; the acq_rel increments form one release sequence, so
// the increment that completes collective `seq` (the one that brings the
// count to (seq + 1) x ranks) sees every rank's cell. That last arrival
// checks the cells against each other, computes the completion time,
// publishes it and wakes the others.
//
// One set of cells and one completion time serve every collective. A rank
// rewrites its cell for seq + 1 only after it returned from seq, so after
// seq's last arrival published, which it does once it has read every cell.
// coll_done_time_ is rewritten by the last arrival at seq + 1, once every
// rank has counted itself into seq + 1, so after every rank has read
// seq's completion time.
double Engine::collective(int rank, uint64_t seq, CollKind kind, int root,
                          uint64_t bytes, double now) {
  check_not_aborted();
  arrivals_[static_cast<size_t>(rank)] = Arrival{kind, root, bytes, now};
  const auto ranks = static_cast<uint64_t>(cfg_.ranks);
  const uint64_t target = (seq + 1) * ranks;
  if (coll_arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 != target) {
    await_ready(rank, coll_done_, seq + 1,
                "simMPI: collective timed out (ranks diverged?)");
    return coll_done_time_;
  }
  const Arrival& first = arrivals_[0];
  double max_time = first.time;
  for (uint64_t r = 1; r < ranks; ++r) {
    const Arrival& a = arrivals_[r];
    VS_CHECK_MSG(a.kind == first.kind, "collective kind mismatch across ranks");
    VS_CHECK_MSG(a.root == first.root, "collective root mismatch across ranks");
    VS_CHECK_MSG(a.bytes == first.bytes, "collective size mismatch across ranks");
    max_time = std::max(max_time, a.time);
  }
  const double cost = collective_cost(kind, cfg_.net, cfg_.ranks, bytes) *
                      cfg_.congestion.factor_at(max_time);
  const double done = max_time + cost;
  coll_done_time_ = done;
  coll_done_.store(seq + 1, std::memory_order_release);
  // Every other rank has arrived, so each one polls or parks on coll_done_.
  for (int r = 0; r < cfg_.ranks; ++r) {
    if (r != rank) wake(r);
  }
  return done;
}

void Engine::await_ready(int rank, const std::atomic<uint64_t>& ready,
                         uint64_t target, const char* timeout_message) {
  const auto is_ready = [&] {
    return ready.load(std::memory_order_acquire) >= target ||
           aborted_.load(std::memory_order_acquire);
  };
  for (int i = 0; i < kYieldTries; ++i) {
    if (is_ready()) {
      check_not_aborted();
      return;
    }
    std::this_thread::yield();
  }
  Parking& park = parking_[static_cast<size_t>(rank)];
  std::unique_lock<std::mutex> lock(park.mu);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(cfg_.deadlock_timeout);
  const bool woken = park.cv.wait_until(lock, deadline, is_ready);
  lock.unlock();
  if (!woken) {
    abort_all();
    throw SimError(timeout_message);
  }
  check_not_aborted();
}

void Engine::wake(int rank) {
  // Taking the parked rank's mutex orders the ready (or abort) store before
  // its predicate check, so a rank that is about to park cannot miss it.
  Parking& park = parking_[static_cast<size_t>(rank)];
  { std::lock_guard<std::mutex> lock(park.mu); }
  park.cv.notify_one();
}

void Engine::abort_all() noexcept {
  aborted_.store(true, std::memory_order_release);
  for (int r = 0; r < cfg_.ranks; ++r) wake(r);
}

void Engine::check_not_aborted() const {
  if (aborted_.load(std::memory_order_acquire)) throw SimError("simMPI: job aborted");
}

RunResult Engine::run(const RankFn& fn) {
  // No rank thread runs between jobs.
  for (int r = 0; r < cfg_.ranks; ++r) {
    inboxes_[static_cast<size_t>(r)].channels.clear();
  }
  coll_arrived_.store(0);
  coll_done_.store(0);
  aborted_.store(false);
  std::vector<std::unique_ptr<Comm>> comms;
  comms.reserve(static_cast<size_t>(cfg_.ranks));
  for (int r = 0; r < cfg_.ranks; ++r) comms.push_back(std::make_unique<Comm>(*this, r));

  std::mutex err_mu;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(cfg_.ranks));
  for (int r = 0; r < cfg_.ranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(*comms[static_cast<size_t>(r)]);
        if (cfg_.on_rank_complete) {
          cfg_.on_rank_complete(*comms[static_cast<size_t>(r)]);
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        abort_all();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);

  RunResult result;
  result.ranks.reserve(comms.size());
  for (auto& c : comms) {
    c->stats_.finish_time = c->now_;
    result.ranks.push_back(c->stats_);
  }
  return result;
}

RunResult run(Config cfg, const RankFn& fn) {
  Engine engine(std::move(cfg));
  return engine.run(fn);
}

}  // namespace vsensor::simmpi
