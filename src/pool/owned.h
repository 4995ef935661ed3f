#ifndef PRISMA_POOL_OWNED_H_
#define PRISMA_POOL_OWNED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace prisma::pool {

/// Identifier of a POOL-X process; unique within a Runtime for its lifetime.
using ProcessId = int64_t;
constexpr ProcessId kNoProcess = -1;

/// The process whose handler is currently executing — the cooperative
/// simulation's answer to "which thread am I on". Maintained by
/// Runtime::ExecuteHandler; kNoProcess between events (control-plane code
/// in tests and benches runs there).
///
/// The simulation is single-threaded by design (see the TSan CI job), so
/// plain statics suffice.
class CurrentProcess {
 public:
  static ProcessId id() { return id_; }
  static const std::string& name() { return name_; }

  /// RAII frame entered by the runtime around every handler.
  class Scope {
   public:
    Scope(ProcessId id, std::string name)
        : prev_id_(id_), prev_name_(std::move(name_)) {
      id_ = id;
      name_ = std::move(name);
    }
    ~Scope() {
      id_ = prev_id_;
      name_ = std::move(prev_name_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ProcessId prev_id_;
    std::string prev_name_;
  };

 private:
  static inline ProcessId id_ = kNoProcess;
  static inline std::string name_;
};

namespace internal_owned {
/// Reports a cross-process access. The default handler prints the message
/// and aborts; tests swap in a capturing handler so the violation path is
/// itself testable without death tests.
using ViolationHandler = void (*)(const std::string& message);
ViolationHandler SetOwnershipViolationHandler(ViolationHandler handler);
void ReportViolation(ProcessId owner, const std::string& owner_name,
                     const std::string& what);

/// Shared owner-binding logic of Owned<T> / OwnedPtr<T>: the first access
/// from inside a handler adopts the running process as owner; later
/// handler accesses must come from the owner. Accesses outside any handler
/// (construction, destruction, control-plane reads by tests and benches
/// between simulation events) are always allowed.
class OwnershipCell {
 public:
  void Check() const {
#ifndef PRISMA_NO_OWNERSHIP_CHECKS
    const ProcessId current = CurrentProcess::id();
    if (current == kNoProcess) return;  // Control plane, between events.
    if (owner_ == kNoProcess) {
      // Process members are constructed before the process is spawned, so
      // binding happens on the owner's first OnStart/OnMail access.
      owner_ = current;
      owner_name_ = CurrentProcess::name();
      return;
    }
    if (owner_ != current) {
      ReportViolation(owner_, owner_name_, "Owned<> state");
    }
#endif
  }

  ProcessId owner() const {
#ifndef PRISMA_NO_OWNERSHIP_CHECKS
    return owner_;
#else
    return kNoProcess;
#endif
  }

 private:
#ifndef PRISMA_NO_OWNERSHIP_CHECKS
  mutable ProcessId owner_ = kNoProcess;
  mutable std::string owner_name_;
#endif
};
}  // namespace internal_owned

/// Process-local state wrapper: the cooperative-simulation race detector.
///
/// POOL-X forbids shared memory (§3.1) — a process's state may only be
/// touched from that process's own handlers. Owned<T> enforces this at
/// runtime: the first access from inside a handler binds the value to the
/// running process, and every later handler access asserts the running
/// process is the owner, aborting with both process names otherwise.
/// Accesses outside any handler (construction, destruction, control-plane
/// reads by tests/benches between simulation events) are always allowed.
///
/// The check is one integer compare per access; define
/// PRISMA_NO_OWNERSHIP_CHECKS to compile it out for profiling builds.
template <typename T>
class Owned {
 public:
  Owned() = default;
  explicit Owned(T value) : value_(std::move(value)) {}

  Owned(const Owned&) = delete;
  Owned& operator=(const Owned&) = delete;

  T& get() {
    cell_.Check();
    return value_;
  }
  const T& get() const {
    cell_.Check();
    return value_;
  }
  T& operator*() { return get(); }
  const T& operator*() const { return get(); }
  T* operator->() { return &get(); }
  const T* operator->() const { return &get(); }

  /// The binding, for diagnostics. kNoProcess until first handler access.
  ProcessId owner() const { return cell_.owner(); }

 private:
  internal_owned::OwnershipCell cell_;
  T value_{};
};

/// Owned<> over a heap value with pointer syntax: `state_->Op()` checks
/// ownership and forwards to the held object. Used for process state built
/// lazily in OnStart (the OFM's fragment engine).
///
/// `null()` deliberately skips the ownership check: probing liveness is
/// how destructors and stall predicates ask "was OnStart reached", which
/// may legitimately happen while another process's handler runs (Kill()
/// destroys a victim inside the killer's frame).
template <typename T>
class OwnedPtr {
 public:
  OwnedPtr() = default;
  /// Adopts `ptr` without an ownership check, like Owned(T value): a
  /// process builds its state in its constructor, which may run inside
  /// the spawning process's handler.
  explicit OwnedPtr(std::unique_ptr<T> ptr) : ptr_(std::move(ptr)) {}

  OwnedPtr(const OwnedPtr&) = delete;
  OwnedPtr& operator=(const OwnedPtr&) = delete;

  OwnedPtr& operator=(std::unique_ptr<T> ptr) {
    cell_.Check();
    ptr_ = std::move(ptr);
    return *this;
  }

  T* operator->() const {
    cell_.Check();
    return ptr_.get();
  }
  T& operator*() const {
    cell_.Check();
    return *ptr_;
  }
  T* get() const {
    cell_.Check();
    return ptr_.get();
  }

  bool null() const { return ptr_ == nullptr; }

  ProcessId owner() const { return cell_.owner(); }

 private:
  internal_owned::OwnershipCell cell_;
  std::unique_ptr<T> ptr_;
};

}  // namespace prisma::pool

#endif  // PRISMA_POOL_OWNED_H_
