#include <gtest/gtest.h>

#include <climits>
#include <type_traits>

#include "access/value.h"
#include "util/random.h"

namespace prima::access {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_EQ(Value::Ref(Tid(3, 9)).AsTid(), Tid(3, 9));
  EXPECT_EQ(Value::List({Value::Int(1)}).elems().size(), 1u);
}

TEST(ValueTest, NumericCrossComparison) {
  // Paper queries compare INTEGER literals against REAL attributes.
  EXPECT_EQ(Value::Int(2).Compare(Value::Real(2.0)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Real(1.5)), 0);
  EXPECT_GT(Value::Real(3.1).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, CompositeComparison) {
  const Value a = Value::List({Value::Int(1), Value::Int(2)});
  const Value b = Value::List({Value::Int(1), Value::Int(3)});
  const Value c = Value::List({Value::Int(1)});
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_GT(a.Compare(c), 0);
  EXPECT_EQ(a.Compare(a), 0);
}

TEST(ValueTest, Contains) {
  const Value set = Value::List({Value::Ref(Tid(1, 1)), Value::Ref(Tid(1, 2))});
  EXPECT_TRUE(set.Contains(Value::Ref(Tid(1, 2))));
  EXPECT_FALSE(set.Contains(Value::Ref(Tid(1, 3))));
  EXPECT_FALSE(Value::Int(1).Contains(Value::Int(1)));
}

// Every Value is one kind byte plus one 8-byte word.
static_assert(sizeof(Value) == 16, "Value is a 16-byte tagged union");

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

std::string Encoded(const Value& v) {
  std::string out;
  v.EncodeInto(&out);
  return Hex(out);
}

std::string KeyEncoded(const Value& v) {
  std::string out;
  EXPECT_TRUE(v.EncodeKeyInto(&out).ok());
  return Hex(out);
}

// Records, WAL undo images and the wire all carry these bytes: each
// expectation is the encoding the previous (104-byte) Value produced.
TEST(ValueTest, GoldenEncodingsOfEveryKind) {
  EXPECT_EQ(Encoded(Value::Null()), "00");
  EXPECT_EQ(Encoded(Value::Int(0)), "0100");
  EXPECT_EQ(Encoded(Value::Int(-1)), "0101");
  EXPECT_EQ(Encoded(Value::Int(300)), "01d804");
  EXPECT_EQ(Encoded(Value::Int(INT64_MIN)), "01ffffffffffffffffff01");
  EXPECT_EQ(Encoded(Value::Real(2.5)), "020000000000000440");
  EXPECT_EQ(Encoded(Value::Real(-0.0)), "020000000000000080");
  EXPECT_EQ(Encoded(Value::Bool(true)), "0301");
  EXPECT_EQ(Encoded(Value::Bool(false)), "0300");
  EXPECT_EQ(Encoded(Value::String("")), "0400");
  EXPECT_EQ(Encoded(Value::String("engine")), "0406656e67696e65");
  EXPECT_EQ(Encoded(Value::Ref(Tid(3, 9))), "050900000000000300");
  EXPECT_EQ(Encoded(Value::Ref(Tid(65535, 0xFFFFFFFFFFFFull))),
            "05ffffffffffffffff");
  EXPECT_EQ(Encoded(Value::Record({Value::Int(1), Value::String("a")})),
            "06020102040161");
  EXPECT_EQ(Encoded(Value::List({Value::Ref(Tid(1, 2)), Value::Null()})),
            "070205020000000000010000");
  EXPECT_EQ(Encoded(Value::EmptyList()), "0700");

  EXPECT_EQ(KeyEncoded(Value::Null()), "00");
  EXPECT_EQ(KeyEncoded(Value::Int(0)), "028000000000000000");
  EXPECT_EQ(KeyEncoded(Value::Int(-1)), "027fffffffffffffff");
  EXPECT_EQ(KeyEncoded(Value::Int(300)), "02800000000000012c");
  EXPECT_EQ(KeyEncoded(Value::Real(2.5)), "02c004000000000000");
  EXPECT_EQ(KeyEncoded(Value::Bool(true)), "0101");
  EXPECT_EQ(KeyEncoded(Value::String("engine")), "03656e67696e650001");
  EXPECT_EQ(KeyEncoded(Value::Ref(Tid(3, 9))), "040003000000000009");

  Atom atom;
  atom.tid = Tid(7, 123);
  atom.attrs = {Value::Null(), Value::Int(5), Value::Null(),
                Value::String("hi"), Value::List({Value::Real(1.0)})};
  std::string bytes;
  atom.EncodeInto(&bytes);
  EXPECT_EQ(Hex(bytes),
            "7b000000000007000301010a030402686904070102000000000000f03f");
  util::Slice in(bytes);
  auto back = Atom::Decode(&in, atom.attrs.size());
  ASSERT_TRUE(back.ok());
  std::string again;
  back->EncodeInto(&again);
  EXPECT_EQ(again, bytes);
}

TEST(ValueTest, CopyMoveAndSelfAssignmentOfOwningKinds) {
  const std::vector<Value> originals = {
      Value::String("a string long enough to live outside any SSO buffer"),
      Value::Record({Value::Int(7), Value::String("field")}),
      Value::List({Value::Ref(Tid(2, 5)), Value::List({Value::Bool(true)})}),
  };
  for (const Value& original : originals) {
    SCOPED_TRACE(original.ToString());
    Value copy(original);  // deep: the copy owns its own string / vector
    EXPECT_TRUE(copy.Equals(original));
    if (copy.kind() == Value::Kind::kString) {
      EXPECT_NE(&copy.AsString(), &original.AsString());
    } else {
      EXPECT_NE(&copy.elems(), &original.elems());
      copy.mutable_elems()->push_back(Value::Int(1));
      EXPECT_EQ(copy.elems().size(), original.elems().size() + 1);
      copy = original;
    }

    Value assigned = Value::Int(3);
    assigned = copy;
    EXPECT_TRUE(assigned.Equals(original));

    Value moved(std::move(copy));
    EXPECT_TRUE(moved.Equals(original));
    EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)

    Value move_assigned = Value::String("replaced");
    move_assigned = std::move(moved);
    EXPECT_TRUE(move_assigned.Equals(original));
    EXPECT_TRUE(moved.is_null());  // NOLINT(bugprone-use-after-move)

    Value& self = move_assigned;
    move_assigned = self;
    EXPECT_TRUE(move_assigned.Equals(original));
    move_assigned = std::move(self);
    EXPECT_TRUE(move_assigned.Equals(original));
  }
  static_assert(std::is_nothrow_move_constructible_v<Value>);
  static_assert(std::is_nothrow_move_assignable_v<Value>);
}

TEST(ValueTest, WrongKindAccessorsReturnDefaults) {
  const std::vector<Value> all = {
      Value::Null(),          Value::Int(42),
      Value::Real(2.5),       Value::Bool(true),
      Value::String("text"),  Value::Ref(Tid(3, 9)),
      Value::Record({Value::Int(1)}), Value::List({Value::Int(2)}),
  };
  for (const Value& v : all) {
    SCOPED_TRACE(v.ToString());
    const Value::Kind k = v.kind();
    if (k != Value::Kind::kInt) {
      EXPECT_EQ(v.AsInt(), 0);
    }
    if (k != Value::Kind::kReal) {
      EXPECT_EQ(v.AsReal(), 0.0);
    }
    if (k != Value::Kind::kBool) {
      EXPECT_FALSE(v.AsBool());
    }
    if (k != Value::Kind::kString) {
      EXPECT_EQ(v.AsString(), "");
    }
    if (k != Value::Kind::kTid) {
      EXPECT_TRUE(v.AsTid().IsNull());
    }
    if (k != Value::Kind::kRecord && k != Value::Kind::kList) {
      EXPECT_TRUE(v.elems().empty());
    }
    if (!v.IsNumber()) {
      EXPECT_EQ(v.AsNumber(), 0.0);
    }
  }
}

Value ArbitraryValue(util::Random* rng, int depth) {
  switch (rng->Uniform(depth > 2 ? 6 : 8)) {
    case 0: return Value::Null();
    case 1: return Value::Int(static_cast<int64_t>(rng->Next()));
    case 2: return Value::Real(rng->NextDouble() * 1e6 - 5e5);
    case 3: return Value::Bool(rng->Bernoulli(0.5));
    case 4: {
      std::string s(rng->Range(0, 20), '\0');
      for (auto& c : s) c = static_cast<char>(rng->Uniform(256));
      return Value::String(std::move(s));
    }
    case 5:
      return Value::Ref(Tid(static_cast<AtomTypeId>(rng->Uniform(100)),
                            rng->Uniform(1 << 20)));
    case 6: {
      std::vector<Value> elems;
      for (int i = rng->Range(0, 4); i > 0; --i) {
        elems.push_back(ArbitraryValue(rng, depth + 1));
      }
      return Value::List(std::move(elems));
    }
    default: {
      std::vector<Value> fields;
      for (int i = rng->Range(1, 3); i > 0; --i) {
        fields.push_back(ArbitraryValue(rng, depth + 1));
      }
      return Value::Record(std::move(fields));
    }
  }
}

class ValueRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueRoundTripTest, EncodeDecodeIdentity) {
  util::Random rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    const Value v = ArbitraryValue(&rng, 0);
    std::string buf;
    v.EncodeInto(&buf);
    util::Slice in(buf);
    auto back = Value::Decode(&in);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(in.empty());
    EXPECT_TRUE(v.Equals(*back)) << v.ToString() << " vs " << back->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueRoundTripTest,
                         ::testing::Values(10, 20, 30, 40));

TEST(AtomTest, SparseEncodingRoundTrip) {
  Atom atom;
  atom.tid = Tid(7, 123);
  atom.attrs = {Value::Null(), Value::Int(5), Value::Null(),
                Value::String("hi"), Value::Null()};
  std::string buf;
  atom.EncodeInto(&buf);
  util::Slice in(buf);
  auto back = Atom::Decode(&in, 5);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->tid, atom.tid);
  ASSERT_EQ(back->attrs.size(), 5u);
  EXPECT_TRUE(back->attrs[0].is_null());
  EXPECT_EQ(back->attrs[1].AsInt(), 5);
  EXPECT_EQ(back->attrs[3].AsString(), "hi");
}

TEST(AtomTest, DecodeToleratesNarrowerSchema) {
  Atom atom;
  atom.tid = Tid(1, 1);
  atom.attrs = {Value::Int(1), Value::Int(2), Value::Int(3)};
  std::string buf;
  atom.EncodeInto(&buf);
  util::Slice in(buf);
  auto back = Atom::Decode(&in, 2);  // schema shrank
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->attrs.size(), 2u);
}

// ---------------------------------------------------------------------------
// Type checking
// ---------------------------------------------------------------------------

TEST(TypeCheckTest, Scalars) {
  EXPECT_TRUE(TypeCheckValue(Value::Int(1), TypeDesc::Integer()).ok());
  EXPECT_FALSE(TypeCheckValue(Value::String("x"), TypeDesc::Integer()).ok());
  EXPECT_TRUE(TypeCheckValue(Value::Real(1.5), TypeDesc::Real()).ok());
  // INTEGER values are acceptable REALs (numeric coercion happens upstream).
  EXPECT_TRUE(TypeCheckValue(Value::Int(1), TypeDesc::Real()).ok());
  EXPECT_TRUE(TypeCheckValue(Value::Bool(true), TypeDesc::Boolean()).ok());
  EXPECT_TRUE(TypeCheckValue(Value::Null(), TypeDesc::Integer()).ok());
}

TEST(TypeCheckTest, CharLength) {
  EXPECT_TRUE(TypeCheckValue(Value::String("abc"), TypeDesc::Char(3)).ok());
  EXPECT_FALSE(TypeCheckValue(Value::String("abcd"), TypeDesc::Char(3)).ok());
  EXPECT_TRUE(TypeCheckValue(Value::String("abcd"), TypeDesc::CharVar()).ok());
}

TEST(TypeCheckTest, ReferenceTargetType) {
  TypeDesc ref = TypeDesc::RefTo("face", "brep");
  ref.ref_type_id = 3;
  EXPECT_TRUE(TypeCheckValue(Value::Ref(Tid(3, 1)), ref).ok());
  EXPECT_FALSE(TypeCheckValue(Value::Ref(Tid(4, 1)), ref).ok());
  EXPECT_FALSE(TypeCheckValue(Value::Int(1), ref).ok());
}

TEST(TypeCheckTest, RecordArityAndFieldTypes) {
  const TypeDesc rec = TypeDesc::RecordOf(
      {{"x", std::make_shared<const TypeDesc>(TypeDesc::Real())},
       {"y", std::make_shared<const TypeDesc>(TypeDesc::Real())}});
  EXPECT_TRUE(
      TypeCheckValue(Value::Record({Value::Real(1), Value::Real(2)}), rec).ok());
  EXPECT_FALSE(TypeCheckValue(Value::Record({Value::Real(1)}), rec).ok());
  EXPECT_FALSE(
      TypeCheckValue(Value::Record({Value::Real(1), Value::String("no")}), rec)
          .ok());
}

TEST(TypeCheckTest, ArrayLength) {
  const TypeDesc arr = TypeDesc::ArrayOf(TypeDesc::Integer(), 3);
  EXPECT_TRUE(TypeCheckValue(
                  Value::List({Value::Int(1), Value::Int(2), Value::Int(3)}),
                  arr)
                  .ok());
  EXPECT_FALSE(
      TypeCheckValue(Value::List({Value::Int(1), Value::Int(2)}), arr).ok());
}

TEST(TypeCheckTest, SetRejectsDuplicates) {
  const TypeDesc set = TypeDesc::SetOf(TypeDesc::Integer());
  EXPECT_TRUE(
      TypeCheckValue(Value::List({Value::Int(1), Value::Int(2)}), set).ok());
  EXPECT_FALSE(
      TypeCheckValue(Value::List({Value::Int(1), Value::Int(1)}), set).ok());
  // LISTs allow duplicates.
  const TypeDesc list = TypeDesc::ListOf(TypeDesc::Integer());
  EXPECT_TRUE(
      TypeCheckValue(Value::List({Value::Int(1), Value::Int(1)}), list).ok());
}

TEST(CardinalityTest, MinAndMax) {
  Cardinality card;
  card.min = 2;
  card.max = 3;
  card.var_max = false;
  const TypeDesc set = TypeDesc::SetOf(TypeDesc::Integer(), card);
  EXPECT_TRUE(
      CheckCardinality(Value::List({Value::Int(1), Value::Int(2)}), set, "a")
          .ok());
  EXPECT_TRUE(CheckCardinality(Value::List({Value::Int(1)}), set, "a")
                  .IsConstraint());
  EXPECT_TRUE(CheckCardinality(Value::List({Value::Int(1), Value::Int(2),
                                            Value::Int(3), Value::Int(4)}),
                               set, "a")
                  .IsConstraint());
  // VAR max: only min matters.
  Cardinality open;
  open.min = 1;
  const TypeDesc set2 = TypeDesc::SetOf(TypeDesc::Integer(), open);
  EXPECT_TRUE(CheckCardinality(Value::Null(), set2, "a").IsConstraint());
}

TEST(TypeDescTest, EncodeDecodeRoundTrip) {
  TypeDesc t = TypeDesc::SetOf(TypeDesc::RefTo("face", "brep"),
                               Cardinality{4, 0, true});
  std::string buf;
  t.EncodeInto(&buf);
  util::Slice in(buf);
  auto back = TypeDesc::Decode(&in);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, TypeKind::kSet);
  EXPECT_EQ(back->elem->ref_type_name, "face");
  EXPECT_EQ(back->elem->ref_attr_name, "brep");
  EXPECT_EQ(back->card.min, 4u);
  EXPECT_TRUE(back->card.var_max);
}

TEST(TypeDescTest, ToStringReadable) {
  EXPECT_EQ(TypeDesc::Integer().ToString(), "INTEGER");
  EXPECT_EQ(TypeDesc::RefTo("solid", "sub").ToString(), "REF_TO(solid.sub)");
  EXPECT_EQ(TypeDesc::SetOf(TypeDesc::Integer(), Cardinality{2, 5, false})
                .ToString(),
            "SET_OF(INTEGER)(2,5)");
}

}  // namespace
}  // namespace prima::access
