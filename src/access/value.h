#ifndef PRIMA_ACCESS_VALUE_H_
#define PRIMA_ACCESS_VALUE_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "access/tid.h"
#include "access/type_system.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace prima::access {

/// Runtime representation of an attribute value. RECORD values are
/// positional field vectors; SET / LIST / ARRAY values all use the composite
/// vector (sets are kept duplicate-free by the access system). Values
/// serialize self-describing so partitions (attribute subsets) and schema
/// evolution decode without a schema in hand.
///
/// Representation: a tagged union of 16 bytes, the kind byte plus one 8-byte
/// word. The word holds the int, the real, the bool, the surrogate as
/// `Tid::Pack()` (the form the encoding already uses), or an owning pointer
/// to the string or the element vector; a Null value owns nothing, so an
/// atom's attribute slots are one flat array of 16-byte cells. Accessors on
/// the wrong kind return the type's default (0, 0.0, false, the null Tid,
/// "" or no elements).
class Value {
 public:
  enum class Kind : uint8_t {
    kNull = 0,
    kInt = 1,
    kReal = 2,
    kBool = 3,
    kString = 4,
    kTid = 5,      ///< IDENTIFIER and REFERENCE values
    kRecord = 6,
    kList = 7,     ///< SET / LIST / ARRAY
  };

  Value() noexcept : kind_(Kind::kNull) { word_.bits = 0; }
  ~Value() { Destroy(); }
  Value(const Value& other) : kind_(Kind::kNull) { CopyFrom(other); }
  Value(Value&& other) noexcept : kind_(other.kind_), word_(other.word_) {
    other.kind_ = Kind::kNull;
  }
  Value& operator=(const Value& other) {
    if (this != &other) {
      Value copy(other);
      *this = std::move(copy);
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Destroy();
      kind_ = other.kind_;
      word_ = other.word_;
      other.kind_ = Kind::kNull;
    }
    return *this;
  }

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value x(Kind::kInt);
    x.word_.i = v;
    return x;
  }
  static Value Real(double v) {
    Value x(Kind::kReal);
    x.word_.r = v;
    return x;
  }
  static Value Bool(bool v) {
    Value x(Kind::kBool);
    x.word_.b = v;
    return x;
  }
  static Value String(std::string v) {
    Value x(Kind::kString);
    x.word_.str = new std::string(std::move(v));
    return x;
  }
  static Value Ref(Tid t) {
    Value x(Kind::kTid);
    x.word_.bits = t.Pack();
    return x;
  }
  static Value Record(std::vector<Value> fields) {
    Value x(Kind::kRecord);
    x.word_.elems = new std::vector<Value>(std::move(fields));
    return x;
  }
  static Value List(std::vector<Value> elems) {
    Value x(Kind::kList);
    x.word_.elems = new std::vector<Value>(std::move(elems));
    return x;
  }
  /// An empty repeating group (what MQL's EMPTY literal denotes).
  static Value EmptyList() { return List({}); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  int64_t AsInt() const { return kind_ == Kind::kInt ? word_.i : 0; }
  double AsReal() const { return kind_ == Kind::kReal ? word_.r : 0.0; }
  bool AsBool() const { return kind_ == Kind::kBool && word_.b; }
  const std::string& AsString() const {
    return kind_ == Kind::kString ? *word_.str : EmptyString();
  }
  Tid AsTid() const {
    return kind_ == Kind::kTid ? Tid::Unpack(word_.bits) : Tid();
  }
  const std::vector<Value>& elems() const {
    return is_composite() ? *word_.elems : NoElems();
  }
  /// The element vector of a RECORD or LIST value (other kinds have none).
  std::vector<Value>* mutable_elems() {
    assert(is_composite());
    return is_composite() ? word_.elems : nullptr;
  }

  /// Numeric view: kInt and kReal compare/convert interchangeably.
  double AsNumber() const {
    return kind_ == Kind::kInt ? static_cast<double>(word_.i) : AsReal();
  }
  bool IsNumber() const { return kind_ == Kind::kInt || kind_ == Kind::kReal; }

  bool Equals(const Value& other) const;
  /// Total order: null < everything; numbers compare numerically across
  /// kInt/kReal; otherwise kind, then value. Returns <0, 0, >0.
  int Compare(const Value& other) const;

  /// True if this list/set value contains an element equal to `v`.
  bool Contains(const Value& v) const;

  std::string ToString() const;

  void EncodeInto(std::string* out) const;
  static util::Result<Value> Decode(util::Slice* in);

  /// Order-preserving key encoding (B*-tree / grid file). Only scalar kinds
  /// (int, real, bool, string, tid) are encodable.
  util::Status EncodeKeyInto(std::string* out) const;

 private:
  friend struct Atom;

  explicit Value(Kind kind) noexcept : kind_(kind) { word_.bits = 0; }

  bool is_composite() const {
    return kind_ == Kind::kRecord || kind_ == Kind::kList;
  }
  static const std::string& EmptyString();
  static const std::vector<Value>& NoElems();

  /// Decode one value from `in` into `*out`, replacing what it held.
  static util::Status DecodeInto(util::Slice* in, Value* out);

  void CopyFrom(const Value& other);
  void Destroy() noexcept {
    if (kind_ == Kind::kString) {
      delete word_.str;
    } else if (is_composite()) {
      delete word_.elems;
    }
  }

  Kind kind_;
  union Word {
    int64_t i;
    double r;
    bool b;
    uint64_t bits;  ///< packed Tid; also the all-zero word of Null
    std::string* str;
    std::vector<Value>* elems;
  } word_;
};

/// A typed record at the access-system interface: the atom (paper §2.2).
/// `attrs` is positional over the atom type's attribute list; attributes the
/// caller did not supply (or project) are kNull.
struct Atom {
  Tid tid;
  std::vector<Value> attrs;

  /// Serialize non-null attributes as (index, value) pairs.
  void EncodeInto(std::string* out) const;
  static util::Result<Atom> Decode(util::Slice* in, size_t attr_count);
};

/// Validate that `v` structurally matches `t` (kinds, record arity, element
/// types, array length, reference target type when resolvable).
util::Status TypeCheckValue(const Value& v, const TypeDesc& t);

/// Check a SET/LIST cardinality restriction.
util::Status CheckCardinality(const Value& v, const TypeDesc& t,
                              const std::string& attr_name);

}  // namespace prima::access

#endif  // PRIMA_ACCESS_VALUE_H_
