#ifndef MINIHIVE_COMMON_BUDGET_H_
#define MINIHIVE_COMMON_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace minihive {

/// One node of the unified memory accounting tree. The root carries the
/// process/server-wide budget; children *commit* a fixed slice of their
/// parent at construction (all-or-nothing) and then account their own
/// consumers — map-join hash tables, cache budgets — against that slice with TryReserve/Release.
///
/// Commitment semantics make admission control compositional: once a child
/// is created, its whole slice is charged to the parent, so the parent's
/// `used() <= limit()` invariant bounds the *worst case* of every admitted
/// consumer, not the optimistic current usage. A failed TryReserve returns
/// a typed ResourceExhausted and changes nothing (all-or-nothing via CAS).
///
/// Thread-safe: reservations are lock-free (one CAS loop per call — callers
/// reserve in chunks, not per row); the child list, kept only for
/// DebugString reporting, takes a mutex.
class MemoryBudget {
 public:
  /// A root node. `limit_bytes` of 0 means unlimited.
  MemoryBudget(std::string name, uint64_t limit_bytes);

  /// Creates a child committing `limit_bytes` against `parent` (which must
  /// outlive the child). Fails with ResourceExhausted when the parent lacks
  /// room; the parent's charge is released again when the child dies.
  static Result<std::unique_ptr<MemoryBudget>> CreateChild(
      MemoryBudget* parent, std::string name, uint64_t limit_bytes);

  ~MemoryBudget();

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Charges `bytes` against this node. All-or-nothing: on ResourceExhausted
  /// nothing is charged. A 0-limit node always succeeds (unlimited).
  Status TryReserve(uint64_t bytes);

  /// Releases a previous reservation (never more than was reserved).
  void Release(uint64_t bytes);

  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  /// 0 = unlimited.
  uint64_t limit() const { return limit_; }
  /// High-water mark of used() over the node's lifetime.
  uint64_t peak_used() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t available() const {
    if (limit_ == 0) return UINT64_MAX;
    uint64_t u = used();
    return u >= limit_ ? 0 : limit_ - u;
  }
  const std::string& name() const { return name_; }
  MemoryBudget* parent() const { return parent_; }

  /// Indented tree of <name> used/limit, for logs and tests.
  std::string DebugString(int indent = 0) const;

 private:
  MemoryBudget(std::string name, uint64_t limit_bytes, MemoryBudget* parent);

  void AddChild(MemoryBudget* child);
  void RemoveChild(MemoryBudget* child);

  std::string name_;
  uint64_t limit_;
  MemoryBudget* parent_;
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> peak_{0};
  mutable std::mutex children_mu_;
  std::vector<MemoryBudget*> children_;
};

/// RAII accumulator over one budget node: consumers reserve in coarse chunks
/// as they grow (amortizing the CAS) and everything is released exactly once
/// when the holder dies. Movable so it can live inside the object whose
/// memory it accounts (a map-join hash table).
class BudgetReservation {
 public:
  BudgetReservation() = default;
  ~BudgetReservation() { ReleaseAll(); }

  BudgetReservation(BudgetReservation&& other) noexcept
      : budget_(other.budget_), bytes_(other.bytes_) {
    other.budget_ = nullptr;
    other.bytes_ = 0;
  }
  BudgetReservation& operator=(BudgetReservation&& other) noexcept {
    if (this != &other) {
      ReleaseAll();
      budget_ = other.budget_;
      bytes_ = other.bytes_;
      other.budget_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  BudgetReservation(const BudgetReservation&) = delete;
  BudgetReservation& operator=(const BudgetReservation&) = delete;

  /// Reserves `bytes` more from `budget` (must be the same node across
  /// calls). On failure nothing is added; already-held bytes stay held.
  Status Reserve(MemoryBudget* budget, uint64_t bytes);

  /// Grows the held reservation until it covers `total_bytes`, reserving in
  /// `chunk_bytes` steps clamped to what the node has left (hot loops call
  /// this per row with a running total; most calls return immediately
  /// without touching the atomic). Fails only when `total_bytes` itself
  /// does not fit.
  Status CoverAtLeast(MemoryBudget* budget, uint64_t total_bytes,
                      uint64_t chunk_bytes = 256 * 1024);

  void ReleaseAll();

  uint64_t bytes() const { return bytes_; }

 private:
  MemoryBudget* budget_ = nullptr;
  uint64_t bytes_ = 0;
};

}  // namespace minihive

#endif  // MINIHIVE_COMMON_BUDGET_H_
