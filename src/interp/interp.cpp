#include "interp/interp.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <sstream>

#include "interp/value.hpp"
#include "runtime/transport.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace vsensor::interp {

namespace {

using namespace minic;

/// Signals a `return` unwinding through statement execution.
struct ReturnSignal {
  Value value;
};
struct BreakSignal {};
struct ContinueSignal {};

/// Per-rank execution engine.
class RankInterpreter {
 public:
  RankInterpreter(const Program& program,
                  const instrument::InstrumentationPlan& plan,
                  const InterpConfig& cfg, simmpi::Comm& comm,
                  rt::BatchTransport* transport, std::vector<PmuSamples>& pmu,
                  std::string* output)
      : program_(program),
        cfg_(cfg),
        comm_(comm),
        pmu_(pmu),
        output_(output),
        sensors_(cfg.runtime, comm.rank(), transport,
                 [this] { flush_units(); return comm_.now(); },
                 [this](double s) { comm_.charge_overhead(s); }) {
    globals_.resize(program.globals.size());
    for (size_t i = 0; i < program.globals.size(); ++i) {
      const auto& g = program.globals[i];
      if (g.builtin) {
        globals_[i] = Value(g.builtin_value);
      } else if (minic::is_array(g.type)) {
        auto arr = std::make_shared<ArrayVal>();
        arr->elem = g.type == Type::IntArray ? Type::Int : Type::Double;
        arr->data.assign(static_cast<size_t>(std::max<long long>(g.array_size, 1)),
                         0.0);
        globals_[i] = Value(std::move(arr));
      } else if (g.init) {
        globals_[i] = eval_const(*g.init);
      } else {
        globals_[i] = g.type == Type::Double ? Value(0.0)
                                             : Value(static_cast<long long>(0));
      }
    }
    for (const auto& info : plan.sensor_table()) sensors_.register_sensor(info);
    pmu_.assign(plan.sensors.size(), PmuSamples{});
    tick_start_units_.assign(plan.sensors.size(), 0);
    pmu_rng_state_ = hash_combine(cfg.pmu_seed, static_cast<uint64_t>(comm.rank()));
  }

  void run_main() {
    const Function* main_fn = program_.find_function("main");
    VS_CHECK_MSG(main_fn != nullptr, "program has no main()");
    VS_CHECK_MSG(main_fn->params.empty(), "main() must take no parameters");
    call_function(*main_fn, {});
    flush_units();
    sensors_.flush();
  }

  const rt::SenseStats& sense_stats() const { return sensors_.sense_stats(); }

 private:
  // ------------------------------------------------------------- cost model
  void charge(uint64_t units) {
    pending_units_ += units;
    if (pending_units_ >= cfg_.flush_units) flush_units();
  }

  void flush_units() {
    if (pending_units_ == 0) return;
    comm_.compute_units(pending_units_, cfg_.units_per_second);
    total_units_ += pending_units_;
    pending_units_ = 0;
  }

  // ------------------------------------------------------------ environment
  struct Frame {
    const Function* fn = nullptr;
    std::vector<Value> params;
    std::vector<Value> locals;
  };

  Value* lookup_slot(const SymbolRef& sym) {
    switch (sym.kind) {
      case SymbolRef::Kind::Global:
        return &globals_[static_cast<size_t>(sym.index)];
      case SymbolRef::Kind::Param:
        return &frames_.back().params[static_cast<size_t>(sym.index)];
      case SymbolRef::Kind::Local:
        return &frames_.back().locals[static_cast<size_t>(sym.index)];
      case SymbolRef::Kind::Unresolved:
        break;
    }
    throw Error("interp: unresolved symbol (run sema first)");
  }

  // ------------------------------------------------------------- evaluation
  Value eval_const(const Expr& e) {
    switch (e.kind) {
      case ExprKind::IntLit:
        return Value(as<IntLitExpr>(e).value);
      case ExprKind::FloatLit:
        return Value(as<FloatLitExpr>(e).value);
      case ExprKind::Unary: {
        const auto& u = as<UnaryExpr>(e);
        const Value v = eval_const(*u.operand);
        if (v.is_int()) return Value(-v.as_int());
        return Value(-v.as_double());
      }
      case ExprKind::Binary: {
        const auto& b = as<BinaryExpr>(e);
        return apply_binary(b.op, eval_const(*b.lhs), eval_const(*b.rhs), b.loc);
      }
      default:
        throw Error("interp: non-constant global initializer");
    }
  }

  static Value apply_binary(BinaryExpr::Op op, const Value& l, const Value& r,
                            SourceLoc loc) {
    const bool both_int = l.is_int() && r.is_int();
    switch (op) {
      case BinaryExpr::Op::Add:
        return both_int ? Value(l.as_int() + r.as_int())
                        : Value(l.as_double() + r.as_double());
      case BinaryExpr::Op::Sub:
        return both_int ? Value(l.as_int() - r.as_int())
                        : Value(l.as_double() - r.as_double());
      case BinaryExpr::Op::Mul:
        return both_int ? Value(l.as_int() * r.as_int())
                        : Value(l.as_double() * r.as_double());
      case BinaryExpr::Op::Div:
        if (both_int) {
          if (r.as_int() == 0) {
            throw Error("interp: integer division by zero at line " +
                        std::to_string(loc.line));
          }
          return Value(l.as_int() / r.as_int());
        }
        return Value(l.as_double() / r.as_double());
      case BinaryExpr::Op::Mod:
        if (r.as_int() == 0) {
          throw Error("interp: modulo by zero at line " + std::to_string(loc.line));
        }
        return Value(l.as_int() % r.as_int());
      case BinaryExpr::Op::Eq:
        return Value(static_cast<long long>(l.as_double() == r.as_double()));
      case BinaryExpr::Op::Ne:
        return Value(static_cast<long long>(l.as_double() != r.as_double()));
      case BinaryExpr::Op::Lt:
        return Value(static_cast<long long>(l.as_double() < r.as_double()));
      case BinaryExpr::Op::Gt:
        return Value(static_cast<long long>(l.as_double() > r.as_double()));
      case BinaryExpr::Op::Le:
        return Value(static_cast<long long>(l.as_double() <= r.as_double()));
      case BinaryExpr::Op::Ge:
        return Value(static_cast<long long>(l.as_double() >= r.as_double()));
      case BinaryExpr::Op::And:
      case BinaryExpr::Op::Or:
        throw Error("interp: logical ops handled by eval()");
    }
    throw Error("interp: unknown binary op");
  }

  Value eval(const Expr& e) {
    switch (e.kind) {
      case ExprKind::IntLit:
        return Value(as<IntLitExpr>(e).value);
      case ExprKind::FloatLit:
        return Value(as<FloatLitExpr>(e).value);
      case ExprKind::StringLit:
        return Value(static_cast<long long>(as<StringLitExpr>(e).value.size()));
      case ExprKind::VarRef:
        charge(1);
        return *lookup_slot(as<VarRefExpr>(e).symbol);
      case ExprKind::Unary: {
        const auto& u = as<UnaryExpr>(e);
        if (u.op == UnaryExpr::Op::AddrOf) {
          // Only meaningful as a builtin out-argument; evaluated there.
          return eval(*u.operand);
        }
        charge(1);
        const Value v = eval(*u.operand);
        if (u.op == UnaryExpr::Op::Not) {
          return Value(static_cast<long long>(!v.truthy()));
        }
        return v.is_int() ? Value(-v.as_int()) : Value(-v.as_double());
      }
      case ExprKind::Binary: {
        const auto& b = as<BinaryExpr>(e);
        charge(1);
        if (b.op == BinaryExpr::Op::And) {
          if (!eval(*b.lhs).truthy()) return Value(static_cast<long long>(0));
          return Value(static_cast<long long>(eval(*b.rhs).truthy()));
        }
        if (b.op == BinaryExpr::Op::Or) {
          if (eval(*b.lhs).truthy()) return Value(static_cast<long long>(1));
          return Value(static_cast<long long>(eval(*b.rhs).truthy()));
        }
        return apply_binary(b.op, eval(*b.lhs), eval(*b.rhs), b.loc);
      }
      case ExprKind::Assign: {
        const auto& a = as<AssignExpr>(e);
        charge(1);
        Value rhs = eval(*a.value);
        return store(*a.target, a.op, rhs);
      }
      case ExprKind::IncDec: {
        const auto& i = as<IncDecExpr>(e);
        charge(1);
        const Value old = load_lvalue(*i.target);
        const Value next =
            old.is_int()
                ? Value(old.as_int() + (i.increment ? 1 : -1))
                : Value(old.as_double() + (i.increment ? 1.0 : -1.0));
        store(*i.target, AssignExpr::Op::Set, next);
        return i.prefix ? next : old;
      }
      case ExprKind::Index: {
        const auto& ix = as<IndexExpr>(e);
        charge(2);
        const Value base = eval(*ix.base);
        const auto& arr = base.as_array();
        const auto idx = static_cast<size_t>(eval(*ix.index).as_int());
        VS_CHECK_MSG(idx < arr->data.size(), "interp: array index out of bounds");
        if (arr->elem == Type::Int) {
          return Value(static_cast<long long>(arr->data[idx]));
        }
        return Value(arr->data[idx]);
      }
      case ExprKind::Call:
        return eval_call(as<CallExpr>(e));
    }
    throw Error("interp: unknown expression kind");
  }

  Value load_lvalue(const Expr& target) {
    if (target.kind == ExprKind::VarRef) {
      return *lookup_slot(as<VarRefExpr>(target).symbol);
    }
    return eval(target);  // IndexExpr
  }

  Value store(const Expr& target, AssignExpr::Op op, const Value& rhs) {
    auto combine = [&](const Value& old) -> Value {
      switch (op) {
        case AssignExpr::Op::Set:
          return rhs;
        case AssignExpr::Op::Add:
          return apply_binary(BinaryExpr::Op::Add, old, rhs, target.loc);
        case AssignExpr::Op::Sub:
          return apply_binary(BinaryExpr::Op::Sub, old, rhs, target.loc);
        case AssignExpr::Op::Mul:
          return apply_binary(BinaryExpr::Op::Mul, old, rhs, target.loc);
        case AssignExpr::Op::Div:
          return apply_binary(BinaryExpr::Op::Div, old, rhs, target.loc);
      }
      return rhs;
    };
    if (target.kind == ExprKind::VarRef) {
      Value* slot = lookup_slot(as<VarRefExpr>(target).symbol);
      const Value next = combine(*slot);
      // Keep the slot's scalar kind stable (int slots stay int).
      *slot = slot->is_int() && next.is_double()
                  ? Value(static_cast<long long>(next.as_double()))
                  : next;
      return *slot;
    }
    const auto& ix = as<IndexExpr>(target);
    const Value base = eval(*ix.base);
    const auto& arr = base.as_array();
    const auto idx = static_cast<size_t>(eval(*ix.index).as_int());
    VS_CHECK_MSG(idx < arr->data.size(), "interp: array store out of bounds");
    Value old = arr->elem == Type::Int
                    ? Value(static_cast<long long>(arr->data[idx]))
                    : Value(arr->data[idx]);
    const Value next = combine(old);
    arr->data[idx] = next.as_double();
    return next;
  }

  // -------------------------------------------------------------- execution
  void exec(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Expr:
        eval(*as<ExprStmt>(s).expr);
        return;
      case StmtKind::Decl: {
        const auto& d = as<DeclStmt>(s);
        Value* slot = lookup_slot(d.symbol);
        if (minic::is_array(d.type)) {
          auto arr = std::make_shared<ArrayVal>();
          arr->elem = d.type == Type::IntArray ? Type::Int : Type::Double;
          arr->data.assign(
              static_cast<size_t>(std::max<long long>(d.array_size, 1)), 0.0);
          *slot = Value(std::move(arr));
        } else if (d.init) {
          charge(1);
          const Value v = eval(*d.init);
          *slot = d.type == Type::Int ? Value(v.as_int()) : Value(v.as_double());
        } else {
          *slot = d.type == Type::Double ? Value(0.0)
                                         : Value(static_cast<long long>(0));
        }
        return;
      }
      case StmtKind::Block:
        for (const auto& child : as<BlockStmt>(s).stmts) exec(*child);
        return;
      case StmtKind::If: {
        const auto& i = as<IfStmt>(s);
        charge(1);
        if (eval(*i.cond).truthy()) {
          exec(*i.then_branch);
        } else if (i.else_branch) {
          exec(*i.else_branch);
        }
        return;
      }
      case StmtKind::For: {
        const auto& f = as<ForStmt>(s);
        if (f.init) exec(*f.init);
        for (;;) {
          charge(1);
          if (f.cond && !eval(*f.cond).truthy()) break;
          try {
            exec(*f.body);
          } catch (const BreakSignal&) {
            break;
          } catch (const ContinueSignal&) {
          }
          if (f.step) eval(*f.step);
        }
        return;
      }
      case StmtKind::While: {
        const auto& w = as<WhileStmt>(s);
        bool first = w.is_do_while;  // do-while skips the first test
        for (;;) {
          charge(1);
          if (!first && !eval(*w.cond).truthy()) break;
          first = false;
          try {
            exec(*w.body);
          } catch (const BreakSignal&) {
            break;
          } catch (const ContinueSignal&) {
          }
        }
        return;
      }
      case StmtKind::Return: {
        const auto& r = as<ReturnStmt>(s);
        throw ReturnSignal{r.value ? eval(*r.value) : Value()};
      }
      case StmtKind::Break:
        throw BreakSignal{};
      case StmtKind::Continue:
        throw ContinueSignal{};
    }
  }

  Value call_function(const Function& fn, std::vector<Value> args) {
    VS_CHECK_MSG(frames_.size() < 256, "interp: call depth limit exceeded");
    Frame frame;
    frame.fn = &fn;
    frame.params = std::move(args);
    frame.locals.resize(fn.local_names.size());
    // Pre-create local arrays so index stores work before Decl executes in
    // odd control flows; Decl re-initializes them on execution.
    for (size_t i = 0; i < fn.local_names.size(); ++i) {
      if (minic::is_array(fn.local_types[i])) {
        auto arr = std::make_shared<ArrayVal>();
        arr->elem = fn.local_types[i] == Type::IntArray ? Type::Int : Type::Double;
        arr->data.assign(
            static_cast<size_t>(std::max<long long>(fn.local_array_sizes[i], 1)),
            0.0);
        frame.locals[i] = Value(std::move(arr));
      }
    }
    frames_.push_back(std::move(frame));
    charge(2);
    Value result;
    try {
      exec(*fn.body);
    } catch (const ReturnSignal& ret) {
      result = ret.value;
    }
    frames_.pop_back();
    return result;
  }

  // --------------------------------------------------------------- builtins
  Value eval_call(const CallExpr& call);
  Value builtin(const CallExpr& call);
  void probe(const CallExpr& call, bool is_tick);
  uint64_t msg_bytes(const CallExpr& call, size_t count_arg, size_t type_arg) {
    const long long count = eval(*call.args[count_arg]).as_int();
    const long long width = eval(*call.args[type_arg]).as_int();
    VS_CHECK_MSG(count >= 0 && width > 0, "interp: bad MPI count/datatype");
    return static_cast<uint64_t>(count) * static_cast<uint64_t>(width);
  }

  const Program& program_;
  const InterpConfig& cfg_;
  simmpi::Comm& comm_;
  std::vector<PmuSamples>& pmu_;
  std::string* output_;
  rt::SensorRuntime sensors_;

  std::vector<Value> globals_;
  std::vector<Frame> frames_;
  uint64_t pending_units_ = 0;
  uint64_t total_units_ = 0;
  std::vector<uint64_t> tick_start_units_;
  uint64_t pmu_rng_state_ = 0;
};

Value RankInterpreter::eval_call(const CallExpr& call) {
  if (call.callee_index >= 0) {
    const auto& fn = program_.functions[static_cast<size_t>(call.callee_index)];
    std::vector<Value> args;
    args.reserve(call.args.size());
    for (const auto& arg : call.args) args.push_back(eval(*arg));
    return call_function(fn, std::move(args));
  }
  return builtin(call);
}

void RankInterpreter::probe(const CallExpr& call, bool is_tick) {
  VS_CHECK_MSG(call.args.size() == 1, "probe takes the sensor id");
  const auto id = static_cast<size_t>(eval_const(*call.args[0]).as_int());
  VS_CHECK_MSG(id < pmu_.size(), "probe references unknown sensor");
  if (!cfg_.enable_sensors) return;
  flush_units();  // sensor durations must cover exactly the probed snippet
  if (is_tick) {
    tick_start_units_[id] = total_units_;
    sensors_.tick(static_cast<int>(id));
  } else {
    double units = static_cast<double>(total_units_ - tick_start_units_[id]);
    if (cfg_.pmu_jitter > 0.0) {
      // Hardware counters over/undercount slightly; model as deterministic
      // multiplicative jitter.
      const double u =
          static_cast<double>(splitmix64(pmu_rng_state_) >> 11) * 0x1.0p-53;
      units *= 1.0 + cfg_.pmu_jitter * u;
    }
    pmu_[id].add(units);
    sensors_.tock(static_cast<int>(id));
  }
}

Value RankInterpreter::builtin(const CallExpr& call) {
  const std::string& name = call.callee;
  auto arg_int = [&](size_t i) { return eval(*call.args[i]).as_int(); };
  auto arg_dbl = [&](size_t i) { return eval(*call.args[i]).as_double(); };
  auto out_slot = [&](size_t i) -> Value* {
    VS_CHECK_MSG(i < call.args.size(), "interp: missing out-argument");
    const Expr& arg = *call.args[i];
    VS_CHECK_MSG(arg.kind == ExprKind::Unary &&
                     as<UnaryExpr>(arg).op == UnaryExpr::Op::AddrOf,
                 "interp: out-argument must be &variable");
    const Expr& inner = *as<UnaryExpr>(arg).operand;
    VS_CHECK_MSG(inner.kind == ExprKind::VarRef,
                 "interp: out-argument must be &variable");
    return lookup_slot(as<VarRefExpr>(inner).symbol);
  };

  if (name == instrument::kTickFn) {
    probe(call, /*is_tick=*/true);
    return Value();
  }
  if (name == instrument::kTockFn) {
    probe(call, /*is_tick=*/false);
    return Value();
  }

  // --- MPI ---
  if (name == "MPI_Init" || name == "MPI_Finalize") return Value();
  if (name == "MPI_Comm_rank") {
    *out_slot(1) = Value(static_cast<long long>(comm_.rank()));
    return Value();
  }
  if (name == "MPI_Comm_size") {
    *out_slot(1) = Value(static_cast<long long>(comm_.size()));
    return Value();
  }
  if (name == "MPI_Wtime") {
    flush_units();
    return Value(comm_.now());
  }
  if (name == "MPI_Barrier") {
    flush_units();
    comm_.barrier();
    return Value();
  }
  if (name == "MPI_Send" || name == "MPI_Ssend") {
    // (buf, count, datatype, dest, tag, comm)
    const uint64_t bytes = msg_bytes(call, 1, 2);
    const int dest = static_cast<int>(arg_int(3));
    const int tag = static_cast<int>(arg_int(4));
    flush_units();
    comm_.send(dest, tag, bytes);
    return Value();
  }
  if (name == "MPI_Recv") {
    // (buf, count, datatype, source, tag, comm, status)
    const uint64_t bytes = msg_bytes(call, 1, 2);
    const int src = static_cast<int>(arg_int(3));
    const int tag = static_cast<int>(arg_int(4));
    flush_units();
    comm_.recv(src, tag, bytes);
    return Value();
  }
  if (name == "MPI_Sendrecv") {
    // (sbuf, scount, stype, dst, stag, rbuf, rcount, rtype, src, rtag, comm,
    //  status)
    const uint64_t sbytes = msg_bytes(call, 1, 2);
    const int dst = static_cast<int>(arg_int(3));
    const int stag = static_cast<int>(arg_int(4));
    const uint64_t rbytes = msg_bytes(call, 6, 7);
    const int src = static_cast<int>(arg_int(8));
    const int rtag = static_cast<int>(arg_int(9));
    flush_units();
    comm_.sendrecv(dst, stag, sbytes, src, rtag, rbytes);
    return Value();
  }
  if (name == "MPI_Bcast") {
    // (buf, count, datatype, root, comm)
    const uint64_t bytes = msg_bytes(call, 1, 2);
    const int root = static_cast<int>(arg_int(3));
    flush_units();
    comm_.bcast(root, bytes);
    return Value();
  }
  if (name == "MPI_Reduce") {
    // (sendbuf, recvbuf, count, datatype, op, root, comm)
    const uint64_t bytes = msg_bytes(call, 2, 3);
    const int root = static_cast<int>(arg_int(5));
    flush_units();
    comm_.reduce(root, bytes);
    return Value();
  }
  if (name == "MPI_Allreduce") {
    // (sendbuf, recvbuf, count, datatype, op, comm)
    const uint64_t bytes = msg_bytes(call, 2, 3);
    flush_units();
    comm_.allreduce(bytes);
    return Value();
  }
  if (name == "MPI_Alltoall") {
    // (sendbuf, scount, stype, recvbuf, rcount, rtype, comm)
    const uint64_t bytes = msg_bytes(call, 1, 2);
    flush_units();
    comm_.alltoall(bytes);
    return Value();
  }
  if (name == "MPI_Allgather") {
    const uint64_t bytes = msg_bytes(call, 1, 2);
    flush_units();
    comm_.allgather(bytes);
    return Value();
  }
  if (name == "MPI_Gather") {
    // (sendbuf, scount, stype, recvbuf, rcount, rtype, root, comm)
    const uint64_t bytes = msg_bytes(call, 1, 2);
    const int root = static_cast<int>(arg_int(6));
    flush_units();
    comm_.gather(root, bytes);
    return Value();
  }
  if (name == "MPI_Scatter") {
    const uint64_t bytes = msg_bytes(call, 1, 2);
    const int root = static_cast<int>(arg_int(6));
    flush_units();
    comm_.scatter(root, bytes);
    return Value();
  }

  // --- libc ---
  if (name == "printf" || name == "puts") {
    charge(20);
    if (comm_.rank() == 0 && output_ != nullptr && !call.args.empty() &&
        call.args[0]->kind == ExprKind::StringLit) {
      *output_ += as<StringLitExpr>(*call.args[0]).value;
      for (size_t i = 1; i < call.args.size(); ++i) {
        *output_ += " " + std::to_string(eval(*call.args[i]).as_double());
      }
      if (name == "puts") *output_ += "\n";
    }
    return Value(static_cast<long long>(0));
  }
  if (name == "sqrt") return Value(std::sqrt(arg_dbl(0)));
  if (name == "fabs") return Value(std::fabs(arg_dbl(0)));
  if (name == "sin") return Value(std::sin(arg_dbl(0)));
  if (name == "cos") return Value(std::cos(arg_dbl(0)));
  if (name == "exp") return Value(std::exp(arg_dbl(0)));
  if (name == "log") return Value(std::log(arg_dbl(0)));
  if (name == "abs") return Value(std::llabs(arg_int(0)));
  if (name == "compute_units") {
    // Simulation intrinsic: burn N abstract work units.
    charge(static_cast<uint64_t>(std::max<long long>(arg_int(0), 0)));
    return Value();
  }

  throw Error("interp: no binding for external function '" + name + "'");
}

}  // namespace

void PmuSamples::add(double units) {
  if (executions == 0) {
    min_units = max_units = units;
  } else {
    min_units = std::min(min_units, units);
    max_units = std::max(max_units, units);
  }
  ++executions;
}

double PmuSamples::ps() const {
  if (executions == 0 || min_units <= 0.0) return 1.0;
  return max_units / min_units;
}

double InterpResult::workload_max_error() const {
  double pm = 1.0;
  for (const auto& rank_samples : pmu) {
    for (const auto& s : rank_samples) pm = std::max(pm, s.ps());
  }
  return pm;
}

InterpResult run_program(const minic::Program& program,
                         const instrument::InstrumentationPlan& plan,
                         simmpi::Config sim_config, const InterpConfig& config,
                         rt::Collector* collector) {
  // Records reach the collector the way every run's do: through a
  // transport, one channel per rank.
  std::unique_ptr<rt::BatchTransport> transport;
  if (collector != nullptr) {
    collector->set_sensors(plan.sensor_table());
    transport =
        std::make_unique<rt::BatchTransport>(collector, sim_config.ranks);
  }

  InterpResult result;
  result.pmu.assign(static_cast<size_t>(sim_config.ranks), {});
  std::vector<rt::SenseStats> sense(static_cast<size_t>(sim_config.ranks));
  std::string rank0_output;
  std::mutex output_mu;

  result.mpi = simmpi::run(std::move(sim_config), [&](simmpi::Comm& comm) {
    std::string local_output;
    RankInterpreter interp(program, plan, config, comm, transport.get(),
                           result.pmu[static_cast<size_t>(comm.rank())],
                           comm.rank() == 0 ? &local_output : nullptr);
    interp.run_main();
    sense[static_cast<size_t>(comm.rank())] = interp.sense_stats();
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(output_mu);
      rank0_output = std::move(local_output);
    }
  });

  if (transport != nullptr) transport->drain();
  for (const auto& s : sense) result.sense.merge(s);
  result.rank0_output = std::move(rank0_output);
  return result;
}

}  // namespace vsensor::interp
