#include "obs/events.hpp"

#include <ostream>
#include <sstream>

#include "obs/jsonw.hpp"

namespace vsensor::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::VarianceFlag: return "variance_flag";
    case EventKind::StandardUpdate: return "standard_update";
    case EventKind::StaleRank: return "stale_rank";
    case EventKind::JournalSalvage: return "journal_salvage";
    case EventKind::Crash: return "crash";
    case EventKind::Recovery: return "recovery";
    case EventKind::CheckpointSaved: return "checkpoint_saved";
    case EventKind::DurabilityDegraded: return "durability_degraded";
    case EventKind::DurabilityRearmed: return "durability_rearmed";
    case EventKind::CheckpointFailed: return "checkpoint_failed";
    case EventKind::RankRejoin: return "rank_rejoin";
    case EventKind::kCount: break;
  }
  return "unknown";
}

std::string render_event_json(const Event& e) {
  std::ostringstream out;
  out << "{\"kind\":\"" << event_kind_name(e.kind) << "\",\"t\":";
  jsonw::write_number(out, e.t);
  if (e.rank >= 0) out << ",\"rank\":" << e.rank;
  if (e.sensor >= 0) out << ",\"sensor\":" << e.sensor;
  if (e.shard >= 0) out << ",\"shard\":" << e.shard;
  if (e.has_group) out << ",\"group\":" << e.group;
  switch (e.kind) {
    case EventKind::VarianceFlag:
      out << ",\"score\":";
      jsonw::write_number(out, e.value);
      out << ",\"standard\":";
      jsonw::write_number(out, e.standard);
      break;
    case EventKind::StandardUpdate:
      out << ",\"standard\":";
      jsonw::write_number(out, e.value);
      break;
    default:
      if (e.value != 0.0) {
        out << ",\"value\":";
        jsonw::write_number(out, e.value);
      }
      break;
  }
  if (e.count != 0) out << ",\"count\":" << e.count;
  if (!e.detail.empty()) {
    out << ",\"detail\":";
    jsonw::write_string(out, e.detail);
  }
  out << '}';
  return out.str();
}

EventLog::EventLog(size_t capacity) : capacity_(capacity ? capacity : 1) {}

void EventLog::emit(const Event& e) {
  std::lock_guard<std::mutex> lock(mu_);
  ++emitted_;
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(e);
}

size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

uint64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

uint64_t EventLog::total_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return emitted_;
}

size_t EventLog::count(EventKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

std::vector<Event> EventLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void EventLog::write_jsonl(std::ostream& out, const RunIdentity* id) const {
  if (id != nullptr) write_identity_header(out, "vsensor-events/1", *id);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : events_) out << render_event_json(e) << '\n';
  if (dropped_ != 0) {
    out << "{\"kind\":\"log_truncated\",\"dropped\":" << dropped_ << "}\n";
  }
}

bool EventLog::export_file(const std::string& path, const RunIdentity* id,
                           io::Vfs* vfs) const {
  std::string err;
  auto file = io::resolve(vfs).open_truncate(path, &err);
  if (file == nullptr) return false;
  io::FileStreambuf buf(file.get());
  std::ostream out(&buf);
  write_jsonl(out, id);
  out.flush();
  return !buf.failed() && out.good();
}

void EventLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
  emitted_ = 0;
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity ? capacity : 1) {}

void FlightRecorder::push(std::string line) {
  std::lock_guard<std::mutex> lock(mu_);
  ++pushed_;
  if (lines_.size() >= capacity_) lines_.pop_front();
  lines_.push_back(std::move(line));
}

size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_.size();
}

uint64_t FlightRecorder::total_pushed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pushed_;
}

std::vector<std::string> FlightRecorder::lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::string>(lines_.begin(), lines_.end());
}

bool FlightRecorder::dump(const std::string& path, const RunIdentity* id,
                          io::Vfs* vfs) const {
  std::string err;
  auto file = io::resolve(vfs).open_truncate(path, &err);
  if (file == nullptr) return false;
  io::FileStreambuf buf(file.get());
  std::ostream out(&buf);
  if (id != nullptr) {
    write_identity_header(out, "vsensor-flight/1", *id);
  } else {
    out << "{\"schema\":\"vsensor-flight/1\"}\n";
  }
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"retained\":" << lines_.size() << ",\"total\":" << pushed_
      << "}\n";
  for (const auto& line : lines_) out << line << '\n';
  out.flush();
  return !buf.failed() && out.good();
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.clear();
  pushed_ = 0;
}

void EventHooks::emit(Event e) const {
  if (log == nullptr && flight == nullptr) return;
  if (e.shard < 0) e.shard = shard;
  if (log != nullptr) log->emit(e);
  if (flight != nullptr) flight->push(render_event_json(e));
}

}  // namespace vsensor::obs
