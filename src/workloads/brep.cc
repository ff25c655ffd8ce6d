#include "workloads/brep.h"

namespace prima::workloads {

using access::AttrValue;
using access::Tid;
using access::Value;
using util::Result;
using util::Status;

namespace {
/// Fig. 2.3 of the paper, verbatim (modulo OCR fixes; the parser reads
/// HULL_DIM as a fixed REAL array).
const char* kSchema[] = {
    "CREATE ATOM_TYPE solid"
    " ( solid_id : IDENTIFIER,"
    "   solid_no : INTEGER,"
    "   description : CHAR_VAR,"
    "   sub : SET_OF (REF_TO (solid.super)),"
    "   super : SET_OF (REF_TO (solid.sub)),"
    "   brep : REF_TO (brep.solid) )"
    " KEYS_ARE (solid_no)",

    "CREATE ATOM_TYPE brep"
    " ( brep_id : IDENTIFIER,"
    "   brep_no : INTEGER,"
    "   hull : HULL_DIM(3),"
    "   solid : REF_TO (solid.brep),"
    "   faces : SET_OF (REF_TO (face.brep)) (4,VAR),"
    "   edges : SET_OF (REF_TO (edge.brep)) (6,VAR),"
    "   points : SET_OF (REF_TO (point.brep)) (4,VAR) )"
    " KEYS_ARE (brep_no)",

    "CREATE ATOM_TYPE face"
    " ( face_id : IDENTIFIER,"
    "   square_dim : REAL,"
    "   border : SET_OF (REF_TO (edge.face)) (3,VAR),"
    "   crosspoint : SET_OF (REF_TO (point.face)) (3,VAR),"
    "   brep : REF_TO (brep.faces) )",

    "CREATE ATOM_TYPE edge"
    " ( edge_id : IDENTIFIER,"
    "   length : REAL,"
    "   boundary : SET_OF (REF_TO (point.line)) (2,VAR),"
    "   face : SET_OF (REF_TO (face.border)) (2,VAR),"
    "   brep : REF_TO (brep.edges) )",

    "CREATE ATOM_TYPE point"
    " ( point_id : IDENTIFIER,"
    "   placement : RECORD"
    "     x_coord, y_coord, z_coord : REAL,"
    "   END,"
    "   line : SET_OF (REF_TO (edge.boundary)) (1,VAR),"
    "   face : SET_OF (REF_TO (face.crosspoint)) (1,VAR),"
    "   brep : REF_TO (brep.points) )",

    // Molecule types of Fig. 2.3c.
    "DEFINE MOLECULE TYPE edge_obj FROM edge - point",
    "DEFINE MOLECULE TYPE face_obj FROM face - edge_obj",
    "DEFINE MOLECULE TYPE brep_obj FROM brep - face_obj",
    "DEFINE MOLECULE TYPE piece_list FROM solid.sub - solid (RECURSIVE)",
};

Value RefSet(const std::vector<Tid>& tids) {
  std::vector<Value> elems;
  elems.reserve(tids.size());
  for (const Tid& t : tids) elems.push_back(Value::Ref(t));
  return Value::List(std::move(elems));
}

Value Point3(double x, double y, double z) {
  return Value::Record({Value::Real(x), Value::Real(y), Value::Real(z)});
}
}  // namespace

Status BrepWorkload::CreateSchema() {
  for (const char* stmt : kSchema) {
    auto r = db_->Execute(stmt);
    if (!r.ok()) return r.status();
  }
  return Status::Ok();
}

Result<BrepWorkload::Solid> BrepWorkload::BuildTetrahedron(int64_t solid_no,
                                                           int64_t brep_no,
                                                           double scale) {
  access::AccessSystem& access = db_->access();
  const access::Catalog& catalog = access.catalog();
  const auto* solid_def = catalog.FindAtomType("solid");
  const auto* brep_def = catalog.FindAtomType("brep");
  const auto* face_def = catalog.FindAtomType("face");
  const auto* edge_def = catalog.FindAtomType("edge");
  const auto* point_def = catalog.FindAtomType("point");
  if (solid_def == nullptr || brep_def == nullptr || face_def == nullptr ||
      edge_def == nullptr || point_def == nullptr) {
    return Status::InvalidArgument("BREP schema not installed");
  }

  Solid out;

  // Solid first (brep references it).
  PRIMA_ASSIGN_OR_RETURN(
      out.solid,
      access.InsertAtom(
          solid_def->id,
          {AttrValue{solid_def->FindAttr("solid_no")->id, Value::Int(solid_no)},
           AttrValue{solid_def->FindAttr("description")->id,
                     Value::String("tetra_" + std::to_string(solid_no))}}));

  // 4 vertices of a tetrahedron.
  const double s = scale;
  const double coords[4][3] = {
      {0, 0, 0}, {s, 0, 0}, {0, s, 0}, {0, 0, s}};
  const uint16_t placement = point_def->FindAttr("placement")->id;
  for (const auto& c : coords) {
    PRIMA_ASSIGN_OR_RETURN(
        const Tid p,
        access.InsertAtom(point_def->id,
                          {AttrValue{placement, Point3(c[0], c[1], c[2])}}));
    out.points.push_back(p);
  }

  // 6 edges: all vertex pairs.
  const int pairs[6][2] = {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}};
  const uint16_t boundary = edge_def->FindAttr("boundary")->id;
  const uint16_t length = edge_def->FindAttr("length")->id;
  for (int e = 0; e < 6; ++e) {
    const auto& a = coords[pairs[e][0]];
    const auto& b = coords[pairs[e][1]];
    double len2 = 0;
    for (int i = 0; i < 3; ++i) len2 += (a[i] - b[i]) * (a[i] - b[i]);
    PRIMA_ASSIGN_OR_RETURN(
        const Tid t,
        access.InsertAtom(
            edge_def->id,
            {AttrValue{length, Value::Real(len2)},
             AttrValue{boundary, RefSet({out.points[pairs[e][0]],
                                         out.points[pairs[e][1]]})}}));
    out.edges.push_back(t);
  }

  // 4 faces: vertex triples (= edge triples).
  const int face_edges[4][3] = {{0, 1, 3}, {0, 2, 4}, {1, 2, 5}, {3, 4, 5}};
  const int face_points[4][3] = {{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}};
  const uint16_t border = face_def->FindAttr("border")->id;
  const uint16_t crosspoint = face_def->FindAttr("crosspoint")->id;
  const uint16_t square_dim = face_def->FindAttr("square_dim")->id;
  for (int f = 0; f < 4; ++f) {
    PRIMA_ASSIGN_OR_RETURN(
        const Tid t,
        access.InsertAtom(
            face_def->id,
            {AttrValue{square_dim, Value::Real(0.5 * s * s * (f + 1))},
             AttrValue{border, RefSet({out.edges[face_edges[f][0]],
                                       out.edges[face_edges[f][1]],
                                       out.edges[face_edges[f][2]]})},
             AttrValue{crosspoint, RefSet({out.points[face_points[f][0]],
                                           out.points[face_points[f][1]],
                                           out.points[face_points[f][2]]})}}));
    out.faces.push_back(t);
  }

  // Brep last: its reference sets install every back-reference.
  std::vector<Value> hull;
  for (int i = 0; i < 3; ++i) hull.push_back(Value::Real(0.0));
  for (int i = 0; i < 3; ++i) hull.push_back(Value::Real(s));
  PRIMA_ASSIGN_OR_RETURN(
      out.brep,
      access.InsertAtom(
          brep_def->id,
          {AttrValue{brep_def->FindAttr("brep_no")->id, Value::Int(brep_no)},
           AttrValue{brep_def->FindAttr("hull")->id, Value::List(hull)},
           AttrValue{brep_def->FindAttr("solid")->id, Value::Ref(out.solid)},
           AttrValue{brep_def->FindAttr("faces")->id, RefSet(out.faces)},
           AttrValue{brep_def->FindAttr("edges")->id, RefSet(out.edges)},
           AttrValue{brep_def->FindAttr("points")->id, RefSet(out.points)}}));
  return out;
}

Result<std::vector<BrepWorkload::Solid>> BrepWorkload::BuildMany(
    int64_t base_no, int n) {
  std::vector<Solid> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    PRIMA_ASSIGN_OR_RETURN(Solid s,
                           BuildTetrahedron(base_no + i, base_no + i,
                                            1.0 + 0.25 * (i % 8)));
    out.push_back(std::move(s));
  }
  return out;
}

Status BrepWorkload::Compose(const Tid& parent,
                             const std::vector<Tid>& children) {
  const auto* solid_def = db_->access().catalog().FindAtomType("solid");
  const uint16_t sub = solid_def->FindAttr("sub")->id;
  for (const Tid& child : children) {
    PRIMA_RETURN_IF_ERROR(db_->access().Connect(parent, sub, child));
  }
  return Status::Ok();
}

Result<Tid> BrepWorkload::BuildAssembly(int64_t base_no, int arity,
                                        int depth) {
  PRIMA_ASSIGN_OR_RETURN(Solid root, BuildTetrahedron(base_no, next_auto_no_++,
                                                      1.0));
  if (depth <= 0) return root.solid;
  std::vector<Tid> children;
  int64_t next = base_no * 10 + 1;
  for (int i = 0; i < arity; ++i) {
    PRIMA_ASSIGN_OR_RETURN(const Tid child,
                           BuildAssembly(next + i, arity, depth - 1));
    children.push_back(child);
  }
  PRIMA_RETURN_IF_ERROR(Compose(root.solid, children));
  return root.solid;
}

}  // namespace prima::workloads
