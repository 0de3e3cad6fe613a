#include "cq/query.hpp"

#include <algorithm>

#include "clash/objects.hpp"

namespace clash {

bool QueryInfo::matches(const cq::Record& r) const {
  return scope().contains(r.key) &&
         std::all_of(predicates.begin(), predicates.end(),
                     [&r](const cq::Predicate& p) {
                       const auto v = r.attr(p.attr);
                       return v && p.eval(*v);
                     });
}

namespace cq {

bool Predicate::eval(std::int64_t x) const {
  switch (op) {
    case Op::kEq:
      return x == value;
    case Op::kNe:
      return x != value;
    case Op::kLt:
      return x < value;
    case Op::kLe:
      return x <= value;
    case Op::kGt:
      return x > value;
    case Op::kGe:
      return x >= value;
  }
  return false;
}

std::string Predicate::to_string() const {
  static constexpr const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
  return "a" + std::to_string(attr) + " " + kOps[int(op)] + " " +
         std::to_string(value);
}

}  // namespace cq
}  // namespace clash
