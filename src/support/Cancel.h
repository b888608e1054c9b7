//===- support/Cancel.h - Cancel points inside long operations --*- C++ -*-===//
///
/// \file
/// Cooperative cancellation below the fixpoint engine's step boundary.
/// The engine checks its cancel flag and deadline between steps, but one
/// step can run for seconds: every level of a nested logical product
/// multiplies the component queries below it.  A CancelScope makes a
/// run's flag and deadline visible to the operations it calls on the same
/// thread; cancelPoint() throws OperationCancelled once either fires, and
/// the engine catches it and reports the run cancelled.
///
/// A cancel point may sit only where unwinding leaves nothing half built:
/// memo caches insert complete results only, so a lattice that saw a
/// cancelled operation answers later queries exactly as before.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SUPPORT_CANCEL_H
#define CAI_SUPPORT_CANCEL_H

#include <atomic>
#include <chrono>

namespace cai {

/// Thrown by cancelPoint(); caught by whoever opened the CancelScope.
struct OperationCancelled {};

/// Installs a cancel flag and deadline for cancelPoint() on this thread
/// for the scope's lifetime.  Scopes nest; the innermost one is checked.
class CancelScope {
public:
  /// \p Flag may be null; an epoch \p Deadline means none.
  CancelScope(const std::atomic<bool> *Flag,
              std::chrono::steady_clock::time_point Deadline);
  ~CancelScope();
  CancelScope(const CancelScope &) = delete;
  CancelScope &operator=(const CancelScope &) = delete;

  /// True once the flag is set or the deadline has passed.
  bool requested() const;

private:
  const std::atomic<bool> *Flag;
  std::chrono::steady_clock::time_point Deadline;
  CancelScope *Outer;
};

/// Throws OperationCancelled if this thread's innermost CancelScope has
/// been cancelled.  Outside any scope it costs one thread-local load.
void cancelPoint();

} // namespace cai

#endif // CAI_SUPPORT_CANCEL_H
