#include "trace.h"

#include <chrono>

namespace perfbench {

namespace {

/// Transactions per replay chunk (2 MB of Txn): large enough that the
/// per-chunk region copy is noise, small enough that the buffer never grows
/// with the run.
constexpr std::size_t kChunk = std::size_t{1} << 16;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

}  // namespace

void Spans::open(std::string name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), parent, Clock::now(), {}});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
}

void Spans::close() {
  spans_[static_cast<std::size_t>(open_.back())].end = Clock::now();
  open_.pop_back();
}

void Spans::close_to(std::size_t depth) {
  while (open_.size() > depth) close();
}

void Spans::write(std::ostream& out) const {
  // One complete ("X") event per span; times in microseconds.
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << ns_between(origin_, s.start) / 1e3
        << ", \"dur\": " << ns_between(s.start, s.end) / 1e3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
}

void Tracer::attach(rt::Runtime& rt) {
  rt_ = &rt;
  shadow_ = std::make_unique<arch::Machine>(rt.topo(), rt.cost());
  chunk_.reserve(kChunk);
  rt.set_sync_observer(this);
  rt.machine().set_observer(this);
}

void Tracer::detach() {
  flush();
  rt_->machine().set_observer(nullptr);
  rt_->set_sync_observer(nullptr);
  rt_ = nullptr;
  shadow_.reset();
}

void Tracer::abandon() {
  chunk_.clear();
  rt_ = nullptr;
  shadow_.reset();
}

void Tracer::on_access(const arch::MemEvent& ev) {
  using arch::LineState;
  Op op = kCachedMiss;
  if (ev.atomic) {
    op = kAtomic;
  } else if (ev.uncached) {
    op = kUncached;
  } else if (ev.pre_state == LineState::kModified ||
             ev.pre_state == LineState::kExclusive ||
             (ev.pre_state == LineState::kShared && !ev.write)) {
    op = kCachedHit;
  }
  ++totals_.calls[class_of(op)];
  chunk_.push_back(Txn{ev.va, ev.start, ev.end, ev.cpu, op, ev.write});
  if (chunk_.size() == kChunk) flush();
}

sim::Time Tracer::replay(const Txn& t) {
  switch (t.op) {
    case kAtomic:
      return shadow_->atomic_rmw(t.cpu, t.va, t.start);
    case kUncached:
      return shadow_->access_uncached(t.cpu, t.va, t.write, t.start);
    default:
      return shadow_->access(t.cpu, t.va, t.write, t.start);
  }
}

void Tracer::sync_regions() {
  // Allocation only appends, so copying the primary's new regions in order
  // keeps the two address maps identical.
  const std::vector<arch::Region>& src = rt_->machine().vm().regions();
  arch::VMem& dst = shadow_->vm();
  for (std::size_t i = dst.regions().size(); i < src.size(); ++i) {
    const arch::Region& r = src[i];
    if (dst.allocate(r.size, r.mem_class, r.label, r.home_node,
                     r.block_bytes) != r.base) {
      ++totals_.mismatches;
    }
  }
}

template <bool kReplay>
void Tracer::walk(double ns[kCallClasses]) {
  std::uint64_t acc = 0;
  CallClass cls = class_of(chunk_.front().op);
  Clock::time_point mark = Clock::now();
  for (const Txn& t : chunk_) {
    const CallClass c = class_of(t.op);
    if (c != cls) {
      const Clock::time_point now = Clock::now();
      ns[cls] += ns_between(mark, now);
      mark = now;
      cls = c;
    }
    if constexpr (kReplay) {
      if (replay(t) != t.end) ++totals_.mismatches;
    } else {
      acc += t.va ^ t.start;
    }
  }
  ns[cls] += ns_between(mark, Clock::now());
  sink_ += acc;
}

void Tracer::flush() {
  if (chunk_.empty()) return;
  spans_.open("replay chunk");
  sync_regions();
  double dry[kCallClasses] = {};
  double full[kCallClasses] = {};
  walk<false>(dry);
  walk<true>(full);
  for (int c = 0; c < kCallClasses; ++c) {
    totals_.replay_ns[c] += full[c] - dry[c];
  }

  std::uint64_t acc = 0;
  const Clock::time_point t0 = Clock::now();
  for (const Txn& t : chunk_) acc += shadow_->vm().translate(t.va, t.cpu);
  const Clock::time_point t1 = Clock::now();
  for (const Txn& t : chunk_) acc += t.va + t.cpu;
  const Clock::time_point t2 = Clock::now();
  totals_.translate_ns += ns_between(t0, t1) - ns_between(t1, t2);
  sink_ += acc;

  chunk_.clear();
  spans_.close();
}

}  // namespace perfbench
