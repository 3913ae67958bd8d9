// Per-vspace change journal: the versioned history a resolver's replication
// protocol serves deltas from (the BIND zone-journal / IXFR idea transplanted
// to intentional names).
//
// Every state-CHANGING write to a vspace's record store — a new or changed
// record, a removal, a soft-state expiry — appends one entry stamped with the
// next value of a per-(resolver, vspace) serial. Soft-state refreshes are
// deliberately NOT journaled: liveness travels as digest rounds instead of
// per-record re-announcements, which is what removes the refresh storm.
//
// The journal is a bounded ring. A peer that asks for entries after a serial
// still on the ring gets an O(changes) delta; one whose serial has fallen off
// must take a full snapshot transfer (the AXFR fallback). Serial 0 means
// "never seen anything".

#ifndef INS_NAMETREE_JOURNAL_H_
#define INS_NAMETREE_JOURNAL_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "ins/common/clock.h"
#include "ins/nametree/name_record.h"

namespace ins {

enum class JournalOp : uint8_t {
  kUpsert = 0,  // record created or changed (kNew / kChanged / kRenamed)
  kDelete = 1,  // record explicitly removed (purge, delete propagation)
  kExpire = 2,  // record swept by soft-state expiry
};

struct JournalEntry {
  uint64_t serial = 0;  // stamped by Append; strictly increasing from 1
  JournalOp op = JournalOp::kUpsert;
  // Record snapshot at capture time. Deletes/expiries carry only the
  // announcer (name_text empty, the rest zero).
  std::string name_text;
  AnnouncerId announcer;
  EndpointInfo endpoint;
  double app_metric = 0.0;
  double route_metric = 0.0;  // owner's distance at capture time
  TimePoint expires{0};
  uint64_t version = 0;
};

// Bounded ring of journal entries with a monotonic serial. Appends and reads
// take an internal mutex, so a reader on another thread (a monitor, a test)
// never sees a half-appended entry.
class NameJournal {
 public:
  explicit NameJournal(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  NameJournal(const NameJournal&) = delete;
  NameJournal& operator=(const NameJournal&) = delete;

  // Stamps `e` with the next serial, appends it (evicting the oldest entry
  // when full), and returns the assigned serial.
  uint64_t Append(JournalEntry e);

  // Newest serial ever assigned; 0 when nothing was ever appended.
  uint64_t head_serial() const;
  // Oldest serial still on the ring; 0 when the ring is empty.
  uint64_t tail_serial() const;

  // Copies entries with serial in (from, from + max] into `out` (oldest
  // first) and sets `*more` when entries beyond those remain. Returns false
  // when `from` has fallen off the ring — history between `from` and the
  // tail is gone, and the caller must fall back to a full snapshot.
  bool ReadSince(uint64_t from, size_t max, std::vector<JournalEntry>* out,
                 bool* more = nullptr) const;

  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  uint64_t head_serial_ = 0;
  std::deque<JournalEntry> ring_;
};

}  // namespace ins

#endif  // INS_NAMETREE_JOURNAL_H_
