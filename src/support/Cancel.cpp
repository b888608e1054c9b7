//===- support/Cancel.cpp - Cancel points inside long operations ----------===//

#include "support/Cancel.h"

using namespace cai;

namespace {
thread_local CancelScope *Innermost = nullptr;
} // namespace

CancelScope::CancelScope(const std::atomic<bool> *Flag,
                         std::chrono::steady_clock::time_point Deadline)
    : Flag(Flag), Deadline(Deadline), Outer(Innermost) {
  Innermost = this;
}

CancelScope::~CancelScope() { Innermost = Outer; }

bool CancelScope::requested() const {
  if (Flag && Flag->load(std::memory_order_relaxed))
    return true;
  return Deadline != std::chrono::steady_clock::time_point{} &&
         std::chrono::steady_clock::now() >= Deadline;
}

void cai::cancelPoint() {
  if (Innermost && Innermost->requested())
    throw OperationCancelled{};
}
