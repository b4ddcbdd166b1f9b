#include "store/hash.hpp"

#include <cstdio>

namespace ind::store {

std::string Digest::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

}  // namespace ind::store
