//===- analysis/Snapshot.cpp - Fixpoint snapshots for incremental runs ----===//

#include "analysis/Snapshot.h"

using namespace cai;

size_t FixpointSnapshot::byteSize() const {
  size_t Bytes = sizeof(FixpointSnapshot);
  for (const ComponentRecord &R : Components) {
    Bytes += sizeof(ComponentRecord);
    for (const std::string &S : R.FinalStates)
      Bytes += sizeof(std::string) + S.capacity();
  }
  return Bytes;
}
