#include "simmpi/comm.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace vsensor::simmpi {

Comm::Comm(Engine& engine, int rank) : engine_(engine), rank_(rank) {}

void Comm::emit(TraceEvent::Kind kind, double t0, uint64_t bytes, int peer, int tag,
                const char* name) {
  if (!engine_.cfg_.trace) return;
  if (kind == TraceEvent::Kind::Compute && !engine_.cfg_.trace_compute) return;
  TraceEvent ev;
  ev.kind = kind;
  ev.rank = rank_;
  ev.t_begin = t0;
  ev.t_end = now_;
  ev.bytes = bytes;
  ev.peer = peer;
  ev.tag = tag;
  ev.name = name;
  engine_.cfg_.trace->on_event(ev);
}

void Comm::compute(double seconds) {
  VS_CHECK_MSG(seconds >= 0.0, "negative compute time");
  const double t0 = now_;
  now_ = engine_.cfg_.nodes.advance(node(), now_, seconds);
  stats_.comp_time += now_ - t0;
  emit(TraceEvent::Kind::Compute, t0, 0, -1, -1, "compute");
}

void Comm::compute_units(uint64_t units, double units_per_second) {
  VS_CHECK_MSG(units_per_second > 0.0, "units_per_second must be positive");
  stats_.pmu_instructions += units;
  compute(static_cast<double>(units) / units_per_second);
}

void Comm::send(int dst, int tag, uint64_t bytes) {
  VS_CHECK_MSG(dst >= 0 && dst < size(), "send: destination rank out of range");
  VS_CHECK_MSG(dst != rank_, "send: self-messages are not modeled");
  const double t0 = now_;
  auto entry = engine_.post_send(rank_, dst, tag, bytes, now_);
  now_ = engine_.await_p2p(rank_, entry);
  stats_.mpi_time += now_ - t0;
  stats_.messages += 1;
  stats_.bytes_sent += bytes;
  emit(TraceEvent::Kind::Send, t0, bytes, dst, tag, "MPI_Send");
}

void Comm::recv(int src, int tag, uint64_t bytes) {
  VS_CHECK_MSG(src >= 0 && src < size(), "recv: source rank out of range");
  VS_CHECK_MSG(src != rank_, "recv: self-messages are not modeled");
  const double t0 = now_;
  auto entry = engine_.post_recv(src, rank_, tag, bytes, now_);
  now_ = engine_.await_p2p(rank_, entry);
  stats_.mpi_time += now_ - t0;
  emit(TraceEvent::Kind::Recv, t0, bytes, src, tag, "MPI_Recv");
}

void Comm::sendrecv(int dst, int send_tag, uint64_t send_bytes, int src, int recv_tag,
                    uint64_t recv_bytes) {
  VS_CHECK_MSG(dst >= 0 && dst < size(), "sendrecv: destination out of range");
  VS_CHECK_MSG(src >= 0 && src < size(), "sendrecv: source out of range");
  VS_CHECK_MSG(dst != rank_ && src != rank_, "sendrecv: self-messages not modeled");
  const double t0 = now_;
  auto send_entry = engine_.post_send(rank_, dst, send_tag, send_bytes, now_);
  auto recv_entry = engine_.post_recv(src, rank_, recv_tag, recv_bytes, now_);
  const double send_done = engine_.await_p2p(rank_, send_entry);
  const double recv_done = engine_.await_p2p(rank_, recv_entry);
  now_ = std::max(send_done, recv_done);
  stats_.mpi_time += now_ - t0;
  stats_.messages += 1;
  stats_.bytes_sent += send_bytes;
  emit(TraceEvent::Kind::Send, t0, send_bytes, dst, send_tag, "MPI_Sendrecv");
}

Comm::Request Comm::isend(int dst, int tag, uint64_t bytes) {
  VS_CHECK_MSG(dst >= 0 && dst < size(), "isend: destination rank out of range");
  VS_CHECK_MSG(dst != rank_, "isend: self-messages are not modeled");
  Request req;
  req.entry_ = engine_.post_send(rank_, dst, tag, bytes, now_);
  req.post_time = now_;
  req.bytes = bytes;
  req.is_send = true;
  return req;
}

Comm::Request Comm::irecv(int src, int tag, uint64_t bytes) {
  VS_CHECK_MSG(src >= 0 && src < size(), "irecv: source rank out of range");
  VS_CHECK_MSG(src != rank_, "irecv: self-messages are not modeled");
  Request req;
  req.entry_ = engine_.post_recv(src, rank_, tag, bytes, now_);
  req.post_time = now_;
  req.bytes = bytes;
  return req;
}

void Comm::wait(Request& request) {
  VS_CHECK_MSG(request.valid(), "wait on an empty request");
  const double t0 = now_;
  auto entry = std::static_pointer_cast<Engine::P2PEntry>(request.entry_);
  const double done = engine_.await_p2p(rank_, entry);
  // Non-blocking overlap: the rank only waits if completion is in its
  // future; a message already delivered costs nothing at wait().
  now_ = std::max(now_, done);
  stats_.mpi_time += now_ - t0;
  if (request.is_send) {
    stats_.messages += 1;
    stats_.bytes_sent += request.bytes;
  }
  emit(request.is_send ? TraceEvent::Kind::Send : TraceEvent::Kind::Recv,
       request.post_time, request.bytes, -1, -1,
       request.is_send ? "MPI_Isend" : "MPI_Irecv");
  request.entry_.reset();
}

void Comm::waitall(std::span<Request> requests) {
  for (auto& req : requests) {
    if (req.valid()) wait(req);
  }
}

void Comm::run_collective(CollKind kind, int root, uint64_t bytes) {
  const double t0 = now_;
  now_ = engine_.collective(rank_, coll_seq_++, kind, root, bytes, now_);
  stats_.mpi_time += now_ - t0;
  stats_.messages += 1;
  stats_.bytes_sent += bytes;
  emit(TraceEvent::Kind::Collective, t0, bytes, -1, -1, coll_name(kind));
}

void Comm::barrier() { run_collective(CollKind::Barrier, 0, 0); }

void Comm::bcast(int root, uint64_t bytes) {
  VS_CHECK_MSG(root >= 0 && root < size(), "bcast: root out of range");
  run_collective(CollKind::Bcast, root, bytes);
}

void Comm::reduce(int root, uint64_t bytes) {
  VS_CHECK_MSG(root >= 0 && root < size(), "reduce: root out of range");
  run_collective(CollKind::Reduce, root, bytes);
}

void Comm::allreduce(uint64_t bytes) { run_collective(CollKind::Allreduce, 0, bytes); }

void Comm::alltoall(uint64_t bytes) { run_collective(CollKind::Alltoall, 0, bytes); }

void Comm::allgather(uint64_t bytes) { run_collective(CollKind::Allgather, 0, bytes); }

void Comm::gather(int root, uint64_t bytes) {
  VS_CHECK_MSG(root >= 0 && root < size(), "gather: root out of range");
  run_collective(CollKind::Gather, root, bytes);
}

void Comm::scatter(int root, uint64_t bytes) {
  VS_CHECK_MSG(root >= 0 && root < size(), "scatter: root out of range");
  run_collective(CollKind::Scatter, root, bytes);
}

void Comm::idle_until(double t) {
  if (t <= now_) return;
  stats_.idle_time += t - now_;
  now_ = t;
}

void Comm::charge_overhead(double seconds) {
  VS_CHECK_MSG(seconds >= 0.0, "negative overhead");
  const double t0 = now_;
  now_ = engine_.cfg_.nodes.advance(node(), now_, seconds);
  stats_.overhead_time += now_ - t0;
}

}  // namespace vsensor::simmpi
