// Interned name components: the resolver's append-only symbol table.
//
// Every attribute and value token that enters a resolver — through an
// advertisement graft, a name update, or a query compile — is mapped to a
// dense u32 SymbolId. The hot lookup path then works entirely in integer
// compares and integer-keyed flat maps (nametree/symbol_map.h) instead of
// std::string hashing, the same trick the BSD vfs name cache and Linux's
// dcache use to keep path resolution cache-dense.
//
// Concurrency contract (the table is shared by every tree of a resolver's
// store, and by query compiles that may run off the writer's thread):
//
//   * Intern() may be called from any writer thread; writers serialize on an
//     internal mutex. Ids are assigned densely in intern order and NEVER
//     change or disappear — the table is append-only.
//   * Find() and NameOf() are lock-free and wait-free: readers load the
//     current index table and string chunks with acquire semantics and never
//     block on writers. A Find() racing an Intern() of the same string may
//     miss it (snapshot semantics) — for query compilation that is exactly
//     the "this token is advertised nowhere yet" answer the tree snapshot
//     implies.
//   * NameOf(id) is safe for any id obtained from Intern(), from Find(), or
//     from a published tree snapshot: the string bytes are fully written
//     before the id is published (release/acquire pairing on the index slot
//     and the size counter).

#ifndef INS_NAME_SYMBOL_TABLE_H_
#define INS_NAME_SYMBOL_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ins {

using SymbolId = uint32_t;
inline constexpr SymbolId kInvalidSymbol = 0xFFFFFFFFu;

class SymbolTable {
 public:
  SymbolTable();
  ~SymbolTable();

  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  // Returns the id for `s`, interning it if new. Writer path (serialized).
  SymbolId Intern(std::string_view s);

  // Lock-free read-only probe: the id of `s`, or kInvalidSymbol if `s` has
  // never been interned (in the probed snapshot).
  SymbolId Find(std::string_view s) const;

  // Lock-free reverse mapping. `id` must be a published id (< size() at some
  // point observed by this thread).
  std::string_view NameOf(SymbolId id) const;

  // Number of interned symbols (acquire; monotone).
  size_t size() const { return count_.load(std::memory_order_acquire); }

  // Resident bytes: string chunks, index tables (retired ones included —
  // they stay alive for lock-free readers), and fixed overhead. Feeds the
  // Figure 13 memory accounting.
  size_t MemoryBytes() const;

  // The hash used by the index and by SymbolMap callers that pre-hash.
  static uint32_t HashString(std::string_view s);

 private:
  // Strings live in fixed-size chunks so ids index them without relocation:
  // chunk = id >> kChunkBits, slot = id & (kChunkSize - 1). Chunk pointers
  // are published with release stores; readers acquire.
  static constexpr size_t kChunkBits = 10;
  static constexpr size_t kChunkSize = 1u << kChunkBits;  // 1024 strings
  static constexpr size_t kMaxChunks = 1u << 12;          // 4M symbols total

  // Open-addressing index: each slot packs (hash32 << 32) | (id + 1); 0 is
  // empty. Slots only transition empty -> occupied; growth swaps in a new
  // table and retires the old one (readers may keep probing it).
  struct Table {
    explicit Table(size_t cap);
    const size_t capacity;  // power of two
    std::unique_ptr<std::atomic<uint64_t>[]> slots;
  };

  SymbolId FindIn(const Table& t, std::string_view s, uint32_t hash) const;
  void Grow();  // caller holds mu_

  std::atomic<std::string*> chunks_[kMaxChunks] = {};
  std::atomic<size_t> count_{0};
  std::atomic<Table*> table_;

  mutable std::mutex mu_;  // serializes Intern and growth
  std::vector<std::unique_ptr<Table>> all_tables_;  // current + retired
};

}  // namespace ins

#endif  // INS_NAME_SYMBOL_TABLE_H_
