#include "access/value.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/coding.h"

namespace prima::access {

using util::Result;
using util::Slice;
using util::Status;

const std::string& Value::EmptyString() {
  static const std::string* const kEmpty = new std::string();
  return *kEmpty;
}

const std::vector<Value>& Value::NoElems() {
  static const std::vector<Value>* const kNone = new std::vector<Value>();
  return *kNone;
}

void Value::CopyFrom(const Value& other) {
  switch (other.kind_) {
    case Kind::kString:
      word_.str = new std::string(*other.word_.str);
      break;
    case Kind::kRecord:
    case Kind::kList:
      word_.elems = new std::vector<Value>(*other.word_.elems);
      break;
    default:
      word_ = other.word_;
      break;
  }
  kind_ = other.kind_;
}

bool Value::Equals(const Value& other) const { return Compare(other) == 0; }

int Value::Compare(const Value& other) const {
  // Numbers compare numerically across int/real.
  if (IsNumber() && other.IsNumber()) {
    const double a = AsNumber(), b = other.AsNumber();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (kind_ != other.kind_) {
    return static_cast<int>(kind_) < static_cast<int>(other.kind_) ? -1 : 1;
  }
  switch (kind_) {
    case Kind::kNull:
      return 0;
    case Kind::kInt:
    case Kind::kReal:
      return 0;  // handled above
    case Kind::kBool:
      return static_cast<int>(word_.b) - static_cast<int>(other.word_.b);
    case Kind::kString: {
      const int c = word_.str->compare(*other.word_.str);
      return c < 0 ? -1 : c > 0 ? 1 : 0;
    }
    case Kind::kTid: {
      const uint64_t a = word_.bits, b = other.word_.bits;
      return a < b ? -1 : a > b ? 1 : 0;
    }
    case Kind::kRecord:
    case Kind::kList: {
      const std::vector<Value>& mine = *word_.elems;
      const std::vector<Value>& theirs = *other.word_.elems;
      const size_t n = std::min(mine.size(), theirs.size());
      for (size_t i = 0; i < n; ++i) {
        const int c = mine[i].Compare(theirs[i]);
        if (c != 0) return c;
      }
      if (mine.size() < theirs.size()) return -1;
      if (mine.size() > theirs.size()) return 1;
      return 0;
    }
  }
  return 0;
}

bool Value::Contains(const Value& v) const {
  if (kind_ != Kind::kList) return false;
  for (const auto& e : *word_.elems) {
    if (e.Equals(v)) return true;
  }
  return false;
}

std::string Value::ToString() const {
  switch (kind_) {
    case Kind::kNull: return "NULL";
    case Kind::kInt: return std::to_string(word_.i);
    case Kind::kReal: return std::to_string(word_.r);
    case Kind::kBool: return word_.b ? "TRUE" : "FALSE";
    case Kind::kString: return "'" + *word_.str + "'";
    case Kind::kTid: return AsTid().ToString();
    case Kind::kRecord:
    case Kind::kList: {
      const std::vector<Value>& elems = *word_.elems;
      std::string s = kind_ == Kind::kRecord ? "(" : "{";
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) s += ", ";
        s += elems[i].ToString();
      }
      s += kind_ == Kind::kRecord ? ")" : "}";
      return s;
    }
  }
  return "?";
}

void Value::EncodeInto(std::string* out) const {
  out->push_back(static_cast<char>(kind_));
  switch (kind_) {
    case Kind::kNull:
      break;
    case Kind::kInt:
      util::PutVarsint64(out, word_.i);
      break;
    case Kind::kReal: {
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(word_.r));
      std::memcpy(&bits, &word_.r, sizeof(bits));
      util::PutFixed64(out, bits);
      break;
    }
    case Kind::kBool:
      out->push_back(word_.b ? '\x01' : '\x00');
      break;
    case Kind::kString:
      util::PutLengthPrefixed(out, *word_.str);
      break;
    case Kind::kTid:
      util::PutFixed64(out, word_.bits);
      break;
    case Kind::kRecord:
    case Kind::kList:
      util::PutVarint64(out, word_.elems->size());
      for (const auto& e : *word_.elems) e.EncodeInto(out);
      break;
  }
}

Status Value::DecodeInto(Slice* in, Value* out) {
  if (in->empty()) return Status::Corruption("truncated value");
  const Kind kind = static_cast<Kind>((*in)[0]);
  in->RemovePrefix(1);
  switch (kind) {
    case Kind::kNull:
      *out = Value();
      return Status::Ok();
    case Kind::kInt: {
      int64_t v;
      if (!util::GetVarsint64(in, &v)) return Status::Corruption("int value");
      *out = Value::Int(v);
      return Status::Ok();
    }
    case Kind::kReal: {
      uint64_t bits;
      if (!util::GetFixed64(in, &bits)) return Status::Corruption("real value");
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      *out = Value::Real(d);
      return Status::Ok();
    }
    case Kind::kBool: {
      if (in->empty()) return Status::Corruption("bool value");
      const bool b = (*in)[0] != '\x00';
      in->RemovePrefix(1);
      *out = Value::Bool(b);
      return Status::Ok();
    }
    case Kind::kString: {
      Slice s;
      if (!util::GetLengthPrefixed(in, &s)) {
        return Status::Corruption("string value");
      }
      *out = Value(Kind::kString);
      out->word_.str = new std::string(s.data(), s.size());
      return Status::Ok();
    }
    case Kind::kTid: {
      uint64_t packed;
      if (!util::GetFixed64(in, &packed)) return Status::Corruption("tid value");
      *out = Value(Kind::kTid);
      out->word_.bits = packed;
      return Status::Ok();
    }
    case Kind::kRecord:
    case Kind::kList: {
      uint64_t n;
      // Every element takes at least its kind byte.
      if (!util::GetVarint64(in, &n) || n > in->size()) {
        return Status::Corruption("composite");
      }
      *out = Value(kind);
      out->word_.elems = new std::vector<Value>(static_cast<size_t>(n));
      for (Value& e : *out->word_.elems) {
        PRIMA_RETURN_IF_ERROR(DecodeInto(in, &e));
      }
      return Status::Ok();
    }
  }
  return Status::Corruption("unknown value kind");
}

Result<Value> Value::Decode(Slice* in) {
  Value v;
  PRIMA_RETURN_IF_ERROR(DecodeInto(in, &v));
  return v;
}

Status Value::EncodeKeyInto(std::string* out) const {
  switch (kind_) {
    case Kind::kInt:
      out->push_back('\x02');
      util::PutKeyInt64(out, word_.i);
      return Status::Ok();
    case Kind::kReal:
      // Same tag as kInt so mixed numeric keys stay ordered.
      out->push_back('\x02');
      util::PutKeyDouble(out, word_.r);
      return Status::Ok();
    case Kind::kBool:
      out->push_back('\x01');
      util::PutKeyBool(out, word_.b);
      return Status::Ok();
    case Kind::kString:
      out->push_back('\x03');
      util::PutKeyString(out, *word_.str);
      return Status::Ok();
    case Kind::kTid: {
      out->push_back('\x04');
      // big-endian for order preservation
      const uint64_t p = word_.bits;
      for (int i = 7; i >= 0; --i) {
        out->push_back(static_cast<char>((p >> (8 * i)) & 0xFF));
      }
      return Status::Ok();
    }
    case Kind::kNull:
      out->push_back('\x00');
      return Status::Ok();
    default:
      return Status::InvalidArgument("value kind not key-encodable");
  }
}

// kInt keys must sort with kReal keys: encode ints as doubles when they fit
// exactly; EncodeKeyInto above uses PutKeyInt64 for ints which would NOT
// interleave with doubles. Index key building therefore normalizes numeric
// values first — see NormalizeForKey in access_system.cc.

void Atom::EncodeInto(std::string* out) const {
  util::PutFixed64(out, tid.Pack());
  uint64_t non_null = 0;
  for (const auto& a : attrs) {
    if (!a.is_null()) ++non_null;
  }
  util::PutVarint64(out, non_null);
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (attrs[i].is_null()) continue;
    util::PutVarint64(out, i);
    attrs[i].EncodeInto(out);
  }
}

Result<Atom> Atom::Decode(Slice* in, size_t attr_count) {
  Atom atom;
  uint64_t packed;
  if (!util::GetFixed64(in, &packed)) return Status::Corruption("atom tid");
  atom.tid = Tid::Unpack(packed);
  atom.attrs.resize(attr_count);
  uint64_t n;
  if (!util::GetVarint64(in, &n)) return Status::Corruption("atom attr count");
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t idx;
    if (!util::GetVarint64(in, &idx)) return Status::Corruption("atom attr idx");
    if (idx < attr_count) {
      PRIMA_RETURN_IF_ERROR(Value::DecodeInto(in, &atom.attrs[idx]));
    } else {
      // Schema narrowed since the record was written; skip the extra.
      Value ignored;
      PRIMA_RETURN_IF_ERROR(Value::DecodeInto(in, &ignored));
    }
  }
  return atom;
}

Status TypeCheckValue(const Value& v, const TypeDesc& t) {
  if (v.is_null()) return Status::Ok();
  switch (t.kind) {
    case TypeKind::kIdentifier:
    case TypeKind::kReference:
      if (v.kind() != Value::Kind::kTid) {
        return Status::InvalidArgument("expected surrogate/reference value");
      }
      if (t.kind == TypeKind::kReference && t.ref_type_id != 0 &&
          !v.AsTid().IsNull() && v.AsTid().type != t.ref_type_id) {
        return Status::InvalidArgument("reference targets wrong atom type");
      }
      return Status::Ok();
    case TypeKind::kInteger:
      if (v.kind() != Value::Kind::kInt) {
        return Status::InvalidArgument("expected INTEGER");
      }
      return Status::Ok();
    case TypeKind::kReal:
      if (!v.IsNumber()) return Status::InvalidArgument("expected REAL");
      return Status::Ok();
    case TypeKind::kBoolean:
      if (v.kind() != Value::Kind::kBool) {
        return Status::InvalidArgument("expected BOOLEAN");
      }
      return Status::Ok();
    case TypeKind::kChar:
      if (v.kind() != Value::Kind::kString) {
        return Status::InvalidArgument("expected CHAR");
      }
      if (v.AsString().size() > t.length) {
        return Status::InvalidArgument("CHAR value too long");
      }
      return Status::Ok();
    case TypeKind::kCharVar:
      if (v.kind() != Value::Kind::kString) {
        return Status::InvalidArgument("expected CHAR_VAR");
      }
      return Status::Ok();
    case TypeKind::kRecord: {
      if (v.kind() != Value::Kind::kRecord) {
        return Status::InvalidArgument("expected RECORD");
      }
      if (v.elems().size() != t.fields.size()) {
        return Status::InvalidArgument("RECORD arity mismatch");
      }
      for (size_t i = 0; i < t.fields.size(); ++i) {
        PRIMA_RETURN_IF_ERROR(TypeCheckValue(v.elems()[i], *t.fields[i].type));
      }
      return Status::Ok();
    }
    case TypeKind::kArray: {
      if (v.kind() != Value::Kind::kList) {
        return Status::InvalidArgument("expected ARRAY");
      }
      if (v.elems().size() != t.length) {
        return Status::InvalidArgument("ARRAY length mismatch");
      }
      for (const auto& e : v.elems()) {
        PRIMA_RETURN_IF_ERROR(TypeCheckValue(e, *t.elem));
      }
      return Status::Ok();
    }
    case TypeKind::kSet:
    case TypeKind::kList: {
      if (v.kind() != Value::Kind::kList) {
        return Status::InvalidArgument("expected SET/LIST");
      }
      for (const auto& e : v.elems()) {
        PRIMA_RETURN_IF_ERROR(TypeCheckValue(e, *t.elem));
      }
      if (t.kind == TypeKind::kSet) {
        for (size_t i = 0; i < v.elems().size(); ++i) {
          for (size_t j = i + 1; j < v.elems().size(); ++j) {
            if (v.elems()[i].Equals(v.elems()[j])) {
              return Status::InvalidArgument("duplicate element in SET");
            }
          }
        }
      }
      return Status::Ok();
    }
  }
  return Status::Ok();
}

Status CheckCardinality(const Value& v, const TypeDesc& t,
                        const std::string& attr_name) {
  if (t.kind != TypeKind::kSet && t.kind != TypeKind::kList) {
    return Status::Ok();
  }
  const size_t n = v.is_null() ? 0 : v.elems().size();
  if (!t.card.var_max && t.card.max != 0 && n > t.card.max) {
    return Status::Constraint("attribute " + attr_name + " exceeds max cardinality " +
                              std::to_string(t.card.max));
  }
  if (n < t.card.min) {
    return Status::Constraint("attribute " + attr_name + " below min cardinality " +
                              std::to_string(t.card.min));
  }
  return Status::Ok();
}

}  // namespace prima::access
