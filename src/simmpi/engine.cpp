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

Engine::Engine(Config cfg) : cfg_(std::move(cfg)) {
  VS_CHECK_MSG(cfg_.ranks > 0, "need at least one rank");
  VS_CHECK_MSG(cfg_.ranks_per_node > 0, "ranks_per_node must be positive");
}

Engine::~Engine() = default;

Engine::P2PEntryPtr Engine::post_send(int src, int dst, int tag, uint64_t bytes,
                                      double now) {
  std::lock_guard<std::mutex> lock(mu_);
  check_not_aborted();
  auto& queue = channels_[ChannelKey{src, dst, tag}];
  for (auto& entry : queue) {
    if (entry->has_receiver && !entry->has_sender) {
      // Whichever side posts second checks the sizes (see post_recv), so a
      // mismatch is caught whatever order the rank threads run in.
      VS_CHECK_MSG(entry->bytes == bytes,
                   "send/recv size mismatch on channel (src,dst,tag)");
      entry->has_sender = true;
      entry->sender_time = now;
      auto kept = entry;
      try_complete(kept, queue);
      return kept;
    }
  }
  auto entry = std::make_shared<P2PEntry>();
  entry->has_sender = true;
  entry->sender_time = now;
  entry->bytes = bytes;
  queue.push_back(entry);
  return entry;
}

Engine::P2PEntryPtr Engine::post_recv(int src, int dst, int tag, uint64_t bytes,
                                      double now) {
  std::lock_guard<std::mutex> lock(mu_);
  check_not_aborted();
  auto& queue = channels_[ChannelKey{src, dst, tag}];
  for (auto& entry : queue) {
    if (entry->has_sender && !entry->has_receiver) {
      VS_CHECK_MSG(entry->bytes == bytes,
                   "send/recv size mismatch on channel (src,dst,tag)");
      entry->has_receiver = true;
      entry->receiver_time = now;
      auto kept = entry;
      try_complete(kept, queue);
      return kept;
    }
  }
  auto entry = std::make_shared<P2PEntry>();
  entry->has_receiver = true;
  entry->receiver_time = now;
  entry->bytes = bytes;
  queue.push_back(entry);
  return entry;
}

void Engine::try_complete(const P2PEntryPtr& entry, std::deque<P2PEntryPtr>& queue) {
  // Caller holds mu_.
  if (!(entry->has_sender && entry->has_receiver)) return;
  const double match_time = std::max(entry->sender_time, entry->receiver_time);
  const double cost =
      p2p_cost(cfg_.net, entry->bytes) * cfg_.congestion.factor_at(match_time);
  entry->done_time = match_time + cost;
  entry->complete = true;
  const auto it = std::find(queue.begin(), queue.end(), entry);
  if (it != queue.end()) queue.erase(it);
  cv_.notify_all();
}

double Engine::await_p2p(const P2PEntryPtr& entry) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(cfg_.deadlock_timeout);
  while (!entry->complete && !aborted_) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        !entry->complete && !aborted_) {
      aborted_ = true;
      cv_.notify_all();
      throw SimError("simMPI: point-to-point operation timed out (deadlock?)");
    }
  }
  check_not_aborted();
  return entry->done_time;
}

double Engine::collective(int rank, uint64_t seq, CollKind kind, int root,
                          uint64_t bytes, double now) {
  (void)rank;
  std::unique_lock<std::mutex> lock(mu_);
  check_not_aborted();
  auto& entry = collectives_[seq];
  if (!entry) {
    entry = std::make_shared<CollEntry>();
    entry->kind = kind;
    entry->root = root;
    entry->bytes = bytes;
  } else {
    VS_CHECK_MSG(entry->kind == kind, "collective kind mismatch across ranks");
    VS_CHECK_MSG(entry->root == root, "collective root mismatch across ranks");
    VS_CHECK_MSG(entry->bytes == bytes, "collective size mismatch across ranks");
  }
  auto kept = entry;
  kept->arrived += 1;
  kept->max_time = std::max(kept->max_time, now);
  if (kept->arrived == cfg_.ranks) {
    const double cost = collective_cost(kind, cfg_.net, cfg_.ranks, bytes) *
                        cfg_.congestion.factor_at(kept->max_time);
    kept->done_time = kept->max_time + cost;
    kept->complete = true;
    collectives_.erase(seq);
    cv_.notify_all();
    return kept->done_time;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(cfg_.deadlock_timeout);
  while (!kept->complete && !aborted_) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        !kept->complete && !aborted_) {
      aborted_ = true;
      cv_.notify_all();
      throw SimError("simMPI: collective timed out (ranks diverged?)");
    }
  }
  check_not_aborted();
  return kept->done_time;
}

void Engine::abort_all() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  aborted_ = true;
  cv_.notify_all();
}

void Engine::check_not_aborted() const {
  if (aborted_) throw SimError("simMPI: job aborted");
}

RunResult Engine::run(const RankFn& fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    channels_.clear();
    collectives_.clear();
    aborted_ = false;
  }
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
