#include "geometry/rect.h"

#include <algorithm>
#include <stdexcept>

namespace subcover {

rect::rect(const point& lo, const point& hi) : lo_(lo), hi_(hi) {
  if (lo.dims() != hi.dims()) throw std::invalid_argument("rect: corner dims mismatch");
  for (int i = 0; i < lo.dims(); ++i)
    if (lo[i] > hi[i])
      throw std::invalid_argument("rect: lo > hi along dimension " + std::to_string(i));
}

rect rect::whole(const universe& u) {
  point lo(u.dims());
  point hi(u.dims());
  for (int i = 0; i < u.dims(); ++i) hi[i] = u.coord_max();
  return {lo, hi};
}

bool rect::contains(const point& p) const {
  if (p.dims() != dims()) throw std::invalid_argument("rect::contains: dims mismatch");
  for (int i = 0; i < dims(); ++i)
    if (p[i] < lo_[i] || p[i] > hi_[i]) return false;
  return true;
}

bool rect::contains(const rect& other) const {
  if (other.dims() != dims()) throw std::invalid_argument("rect::contains: dims mismatch");
  for (int i = 0; i < dims(); ++i)
    if (other.lo_[i] < lo_[i] || other.hi_[i] > hi_[i]) return false;
  return true;
}

bool rect::intersects(const rect& other) const {
  if (other.dims() != dims()) throw std::invalid_argument("rect::intersects: dims mismatch");
  for (int i = 0; i < dims(); ++i)
    if (other.hi_[i] < lo_[i] || other.lo_[i] > hi_[i]) return false;
  return true;
}

std::optional<rect> rect::intersection(const rect& other) const {
  if (!intersects(other)) return std::nullopt;
  point lo(dims());
  point hi(dims());
  for (int i = 0; i < dims(); ++i) {
    lo[i] = std::max(lo_[i], other.lo_[i]);
    hi[i] = std::min(hi_[i], other.hi_[i]);
  }
  return rect(lo, hi);
}

u512 rect::volume() const {
  u512 v = 1;
  for (int i = 0; i < dims(); ++i) v = v.mul_u64(side(i));
  return v;
}

long double rect::volume_ld() const {
  long double v = 1;
  for (int i = 0; i < dims(); ++i) v *= static_cast<long double>(side(i));
  return v;
}

std::string rect::to_string() const {
  std::string s;
  for (int i = 0; i < dims(); ++i) {
    if (i != 0) s += " x ";
    s += "[";
    s += std::to_string(lo_[i]);
    s += ",";
    s += std::to_string(hi_[i]);
    s += "]";
  }
  return s;
}

}  // namespace subcover
