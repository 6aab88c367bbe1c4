#include "common/budget.h"

#include <algorithm>

namespace minihive {

MemoryBudget::MemoryBudget(std::string name, uint64_t limit_bytes)
    : MemoryBudget(std::move(name), limit_bytes, nullptr) {}

MemoryBudget::MemoryBudget(std::string name, uint64_t limit_bytes,
                           MemoryBudget* parent)
    : name_(std::move(name)), limit_(limit_bytes), parent_(parent) {}

Result<std::unique_ptr<MemoryBudget>> MemoryBudget::CreateChild(
    MemoryBudget* parent, std::string name, uint64_t limit_bytes) {
  // Commit the whole slice up front: the parent's used() bounds the worst
  // case of every admitted child, which is what admission control gates on.
  MINIHIVE_RETURN_IF_ERROR(parent->TryReserve(limit_bytes));
  auto child = std::unique_ptr<MemoryBudget>(
      new MemoryBudget(std::move(name), limit_bytes, parent));
  parent->AddChild(child.get());
  return child;
}

MemoryBudget::~MemoryBudget() {
  if (parent_ != nullptr) {
    parent_->RemoveChild(this);
    parent_->Release(limit_);
  }
}

Status MemoryBudget::TryReserve(uint64_t bytes) {
  if (bytes == 0) return Status::OK();
  if (limit_ == 0) {
    // Unlimited: still account, for reporting.
    uint64_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
    return Status::OK();
  }
  uint64_t cur = used_.load(std::memory_order_relaxed);
  while (true) {
    if (bytes > limit_ || cur > limit_ - bytes) {
      return Status::ResourceExhausted(
          "memory budget '" + name_ + "' exhausted: " + std::to_string(cur) +
          " of " + std::to_string(limit_) + " bytes committed, " +
          std::to_string(bytes) + " more requested");
    }
    if (used_.compare_exchange_weak(cur, cur + bytes,
                                    std::memory_order_relaxed)) {
      uint64_t now = cur + bytes;
      uint64_t peak = peak_.load(std::memory_order_relaxed);
      while (now > peak && !peak_.compare_exchange_weak(
                               peak, now, std::memory_order_relaxed)) {
      }
      return Status::OK();
    }
  }
}

void MemoryBudget::Release(uint64_t bytes) {
  if (bytes == 0) return;
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

void MemoryBudget::AddChild(MemoryBudget* child) {
  std::lock_guard<std::mutex> lock(children_mu_);
  children_.push_back(child);
}

void MemoryBudget::RemoveChild(MemoryBudget* child) {
  std::lock_guard<std::mutex> lock(children_mu_);
  children_.erase(std::remove(children_.begin(), children_.end(), child),
                  children_.end());
}

std::string MemoryBudget::DebugString(int indent) const {
  std::string out(indent * 2, ' ');
  out += name_ + ": " + std::to_string(used()) + " / " +
         (limit_ == 0 ? std::string("unlimited") : std::to_string(limit_)) +
         " bytes (peak " + std::to_string(peak_used()) + ")\n";
  std::lock_guard<std::mutex> lock(children_mu_);
  for (const MemoryBudget* child : children_) {
    out += child->DebugString(indent + 1);
  }
  return out;
}

Status BudgetReservation::Reserve(MemoryBudget* budget, uint64_t bytes) {
  MINIHIVE_RETURN_IF_ERROR(budget->TryReserve(bytes));
  budget_ = budget;
  bytes_ += bytes;
  return Status::OK();
}

Status BudgetReservation::CoverAtLeast(MemoryBudget* budget,
                                       uint64_t total_bytes,
                                       uint64_t chunk_bytes) {
  if (total_bytes <= bytes_) return Status::OK();
  uint64_t deficit = total_bytes - bytes_;
  // Round the growth up to whole chunks so per-row callers hit the atomic
  // only every `chunk_bytes` of growth, but never past what the node has
  // left: only a cover that itself exceeds the limit may fail.
  uint64_t grow = ((deficit + chunk_bytes - 1) / chunk_bytes) * chunk_bytes;
  grow = std::max(deficit, std::min(grow, budget->available()));
  return Reserve(budget, grow);
}

void BudgetReservation::ReleaseAll() {
  if (budget_ != nullptr && bytes_ > 0) budget_->Release(bytes_);
  budget_ = nullptr;
  bytes_ = 0;
}

}  // namespace minihive
