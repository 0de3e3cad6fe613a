#include "sim/link_matrix.hpp"

namespace clash::sim {

void LinkMatrix::set_fault(ServerId from, ServerId to, Fault f) {
  if (f.benign()) {
    faults_.erase(key(from, to));
  } else {
    faults_[key(from, to)] = f;
  }
}

void LinkMatrix::set_drop(ServerId from, ServerId to, double prob) {
  Fault f = fault_of(from, to);
  f.drop_prob = prob;
  set_fault(from, to, f);
}

void LinkMatrix::set_delay(ServerId from, ServerId to, SimDuration d) {
  Fault f = fault_of(from, to);
  f.delay_usec = d.usec;
  set_fault(from, to, f);
}

void LinkMatrix::set_duplication(ServerId from, ServerId to, double prob) {
  Fault f = fault_of(from, to);
  f.dup_prob = prob;
  set_fault(from, to, f);
}

void LinkMatrix::set_reordering(ServerId from, ServerId to, double prob,
                                SimDuration window) {
  Fault f = fault_of(from, to);
  f.reorder_prob = prob;
  if (window.usec > 0) f.reorder_window_usec = window.usec;
  set_fault(from, to, f);
}

void LinkMatrix::set_slow(ServerId from, ServerId to, double factor) {
  Fault f = fault_of(from, to);
  f.slow_factor = factor;
  set_fault(from, to, f);
}

void LinkMatrix::set_corruption(ServerId from, ServerId to, double prob) {
  Fault f = fault_of(from, to);
  f.corrupt_prob = prob;
  set_fault(from, to, f);
}

void LinkMatrix::cut(ServerId from, ServerId to) {
  Fault f = fault_of(from, to);
  f.cut = true;
  set_fault(from, to, f);
}

void LinkMatrix::heal(ServerId from, ServerId to) {
  faults_.erase(key(from, to));
}

void LinkMatrix::partition(const std::vector<ServerId>& a,
                           const std::vector<ServerId>& b) {
  one_way_partition(a, b);
  one_way_partition(b, a);
}

void LinkMatrix::one_way_partition(const std::vector<ServerId>& from,
                                   const std::vector<ServerId>& to) {
  for (const ServerId f : from) {
    for (const ServerId t : to) {
      if (f != t) cut(f, t);
    }
  }
}

void LinkMatrix::heal_all() { faults_.clear(); }

void LinkMatrix::clear() {
  faults_.clear();
  scripts_.clear();
  default_ = Fault{};
}

void LinkMatrix::script(ServerId from, ServerId to,
                        const std::vector<bool>& drops) {
  auto& queue = scripts_[key(from, to)];
  for (const bool drop : drops) queue.push_back(drop);
  if (queue.empty()) scripts_.erase(key(from, to));
}

LinkMatrix::Fault LinkMatrix::fault_of(ServerId from, ServerId to) const {
  const auto it = faults_.find(key(from, to));
  return it != faults_.end() ? it->second : default_;
}

LinkMatrix::Verdict LinkMatrix::judge(ServerId from, ServerId to,
                                      SimDuration base) {
  const auto sit = scripts_.find(key(from, to));
  if (sit != scripts_.end()) {
    const bool drop = sit->second.front();
    sit->second.pop_front();
    if (sit->second.empty()) scripts_.erase(sit);
    if (drop) return Verdict{false, SimDuration{0}};
    return Verdict{true, base};
  }
  const Fault f = fault_of(from, to);
  const auto fv = judge_fault(f, rng_, base.usec);
  if (!fv.deliver) return Verdict{false, SimDuration{0}};
  if (f.delay_usec > 0) ++stats_.delayed;
  if (fv.duplicate) ++stats_.duplicated;
  if (fv.reorder) ++stats_.reordered;
  if (fv.corrupt) ++stats_.corrupted;
  return Verdict{true, SimDuration{fv.delay_usec}, fv.duplicate, fv.corrupt};
}

}  // namespace clash::sim
