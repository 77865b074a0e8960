#ifndef FEDAQP_OBS_AUDIT_LOG_H_
#define FEDAQP_OBS_AUDIT_LOG_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace fedaqp {

class AnalystLedger;  // dp/accountant.h — kept out of this header so the
                      // ledger can also point back at the log.

namespace obs {

/// Append-only record of every privacy-budget mutation, in the exact
/// order the ledger applied it. For charges that order IS the admission
/// sequence (the admission thread charges strictly in seq order); refunds
/// and savings land where the ledger serialized them, each stamped with
/// the admission seq of the causing query, so any analyst's spend is
/// attributable query by query.
///
/// Replay applies the same floating-point operations in the same order to
/// a fresh ledger, reproducing the live ledger's spent/saved/remaining
/// state bit-exactly — the audit trail proves the ledger, it does not
/// merely approximate it.
class BudgetAuditLog {
 public:
  enum class Kind : uint8_t {
    /// A grant: amount = (xi, psi).
    kRegister = 0,
    /// A successful charge of amount (eps, delta).
    kCharge = 1,
    /// A refund of amount back to the grant.
    kRefund = 2,
    /// Budget a cache-served answer avoided charging.
    kSaving = 3,
  };

  struct Record {
    /// Position in the log: the replay order.
    uint64_t index = 0;
    /// Admission sequence of the causing query (0 = none, e.g. kRegister).
    uint64_t seq = 0;
    /// Originating coordinator when the mutation arrived through the
    /// shared ledger service (0 = local / single-coordinator). Together
    /// with `seq` this attributes every entry of a merged multi-
    /// coordinator log to exactly one admission decision.
    uint32_t coordinator = 0;
    Kind kind = Kind::kCharge;
    std::string analyst;
    double epsilon = 0.0;
    double delta = 0.0;
  };

  BudgetAuditLog() = default;
  BudgetAuditLog(const BudgetAuditLog&) = delete;
  BudgetAuditLog& operator=(const BudgetAuditLog&) = delete;

  /// Appends one record (thread-safe; the ledger calls this under its own
  /// mutex, which is what makes log order == apply order).
  void Append(Kind kind, const std::string& analyst, double epsilon,
              double delta, uint64_t seq, uint32_t coordinator = 0);

  size_t size() const;
  /// All records, in apply (replay) order.
  std::vector<Record> Snapshot() const;
  /// The records touching `analyst`, in apply order.
  std::vector<Record> ForAnalyst(const std::string& analyst) const;
  void Clear();

  /// Replays the log into `out` (which must be empty — no grants). After
  /// an OK replay, `out`'s spent/saved/remaining per analyst are
  /// bit-identical to the ledger this log was recorded from.
  Status Replay(AnalystLedger* out) const;

  static const char* KindName(Kind kind);

 private:
  /// One record as stored: the analyst interned and the index implicit
  /// in the position, 40 bytes where a Record takes 72.
  struct Entry {
    uint64_t seq = 0;
    double epsilon = 0.0;
    double delta = 0.0;
    uint32_t coordinator = 0;
    uint32_t analyst = 0;
    Kind kind = Kind::kCharge;
  };

  /// The public form of entry `index`. Caller holds mutex_.
  Record RecordAtLocked(size_t index) const;

  mutable std::mutex mutex_;
  /// The log grows by one entry per charge for the client's lifetime, so
  /// it is kept compact, and in a deque: a vector's doubling would
  /// briefly hold the old and the new buffer — twice the log — at every
  /// growth step.
  std::deque<Entry> entries_;
  /// Interned analyst names; Entry::analyst indexes `analysts_`.
  std::vector<std::string> analysts_;
  std::unordered_map<std::string, uint32_t> analyst_ids_;
};

}  // namespace obs
}  // namespace fedaqp

#endif  // FEDAQP_OBS_AUDIT_LOG_H_
