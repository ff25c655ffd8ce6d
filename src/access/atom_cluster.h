#ifndef PRIMA_ACCESS_ATOM_CLUSTER_H_
#define PRIMA_ACCESS_ATOM_CLUSTER_H_

#include <functional>
#include <string>
#include <vector>

#include "access/value.h"
#include "util/result.h"
#include "util/slice.h"

namespace prima::access {

/// Serialized form of one atom cluster (paper Fig. 3.2): the characteristic
/// atom followed by the referenced atoms, grouped by atom type. The whole
/// image maps onto a single page sequence, so constructing the molecule
/// costs one chained I/O instead of one random page access per atom.
struct ClusterImage {
  Atom characteristic;
  /// Member groups: (atom type id, atoms of that type), insertion order.
  std::vector<std::pair<AtomTypeId, std::vector<Atom>>> groups;

  void EncodeInto(std::string* out) const;

  /// `attr_counts(type)` supplies the attribute count per atom type so
  /// atoms decode positionally.
  static util::Result<ClusterImage> Decode(
      util::Slice in, AtomTypeId char_type,
      const std::function<size_t(AtomTypeId)>& attr_counts);

  /// All atoms (characteristic first), flattened.
  std::vector<Atom> Flatten() const;
};

}  // namespace prima::access

#endif  // PRIMA_ACCESS_ATOM_CLUSTER_H_
