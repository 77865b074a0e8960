#include "obs/audit_log.h"

#include "dp/accountant.h"
#include "dp/budget.h"

namespace fedaqp {
namespace obs {

void BudgetAuditLog::Append(Kind kind, const std::string& analyst,
                            double epsilon, double delta, uint64_t seq,
                            uint32_t coordinator) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto interned = analyst_ids_.try_emplace(
      analyst, static_cast<uint32_t>(analysts_.size()));
  if (interned.second) analysts_.push_back(analyst);
  Entry e;
  e.seq = seq;
  e.epsilon = epsilon;
  e.delta = delta;
  e.coordinator = coordinator;
  e.analyst = interned.first->second;
  e.kind = kind;
  entries_.push_back(e);
}

BudgetAuditLog::Record BudgetAuditLog::RecordAtLocked(size_t index) const {
  const Entry& e = entries_[index];
  Record r;
  r.index = index;
  r.seq = e.seq;
  r.coordinator = e.coordinator;
  r.kind = e.kind;
  r.analyst = analysts_[e.analyst];
  r.epsilon = e.epsilon;
  r.delta = e.delta;
  return r;
}

size_t BudgetAuditLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<BudgetAuditLog::Record> BudgetAuditLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Record> out;
  out.reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    out.push_back(RecordAtLocked(i));
  }
  return out;
}

std::vector<BudgetAuditLog::Record> BudgetAuditLog::ForAnalyst(
    const std::string& analyst) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Record> out;
  auto it = analyst_ids_.find(analyst);
  if (it == analyst_ids_.end()) return out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].analyst == it->second) out.push_back(RecordAtLocked(i));
  }
  return out;
}

void BudgetAuditLog::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  analysts_.clear();
  analyst_ids_.clear();
}

Status BudgetAuditLog::Replay(AnalystLedger* out) const {
  const std::vector<Record> records = Snapshot();
  for (const Record& r : records) {
    switch (r.kind) {
      case Kind::kRegister: {
        Status st =
            out->Register(r.analyst, r.epsilon, r.delta, r.coordinator);
        if (!st.ok()) return st;
        break;
      }
      case Kind::kCharge: {
        Status st = out->Charge(r.analyst, PrivacyBudget{r.epsilon, r.delta},
                                r.seq, r.coordinator);
        if (!st.ok()) {
          return Status::Internal(
              "audit replay: logged charge refused (record " +
              std::to_string(r.index) + "): " + st.message());
        }
        break;
      }
      case Kind::kRefund: {
        // A clamped overdraw (InvalidArgument) still mutated the live
        // ledger deterministically; replaying it reproduces that state,
        // so only an unknown analyst is a real replay failure.
        Status st = out->Refund(r.analyst, PrivacyBudget{r.epsilon, r.delta},
                                r.seq, r.coordinator);
        if (!st.ok() && st.code() == StatusCode::kNotFound) {
          return Status::Internal(
              "audit replay: logged refund refused (record " +
              std::to_string(r.index) + "): " + st.message());
        }
        break;
      }
      case Kind::kSaving:
        out->RecordSaving(r.analyst, PrivacyBudget{r.epsilon, r.delta},
                          r.seq, r.coordinator);
        break;
    }
  }
  return Status::OK();
}

const char* BudgetAuditLog::KindName(Kind kind) {
  switch (kind) {
    case Kind::kRegister:
      return "register";
    case Kind::kCharge:
      return "charge";
    case Kind::kRefund:
      return "refund";
    case Kind::kSaving:
      return "saving";
  }
  return "?";
}

}  // namespace obs
}  // namespace fedaqp
