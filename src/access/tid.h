#ifndef PRIMA_ACCESS_TID_H_
#define PRIMA_ACCESS_TID_H_

#include <cstdint>
#include <string>

namespace prima::access {

/// Numeric id of an atom type (catalog-assigned).
using AtomTypeId = uint16_t;

/// Logical address of an atom — the surrogate concept of [ML83] (paper
/// §3.2). Implements both the IDENTIFIER attribute and REFERENCE attribute
/// values. Generated by the access system when an atom is inserted and
/// released when it is deleted; stable across physical record moves.
///
/// Packing: [type:16][sequence:48].
struct Tid {
  AtomTypeId type = 0;
  uint64_t seq = 0;  // 48 bits used

  constexpr Tid() = default;
  constexpr Tid(AtomTypeId t, uint64_t s) : type(t), seq(s) {}

  bool IsNull() const { return type == 0 && seq == 0; }

  uint64_t Pack() const {
    return (static_cast<uint64_t>(type) << 48) | (seq & 0xFFFFFFFFFFFFull);
  }
  static Tid Unpack(uint64_t packed) {
    return Tid(static_cast<AtomTypeId>(packed >> 48),
               packed & 0xFFFFFFFFFFFFull);
  }

  std::string ToString() const {
    return "@" + std::to_string(type) + ":" + std::to_string(seq);
  }

  friend bool operator==(const Tid& a, const Tid& b) {
    return a.type == b.type && a.seq == b.seq;
  }
  friend bool operator!=(const Tid& a, const Tid& b) { return !(a == b); }
  friend bool operator<(const Tid& a, const Tid& b) {
    return a.Pack() < b.Pack();
  }
};

/// Null surrogate (no atom).
inline constexpr Tid kNullTid{};

}  // namespace prima::access

#endif  // PRIMA_ACCESS_TID_H_
