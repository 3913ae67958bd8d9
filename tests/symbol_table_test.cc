// SymbolTable: id stability, snapshot semantics of the lock-free readers,
// and concurrent intern/read (the case TSan is pointed at — CI runs the
// `concurrency` label under -fsanitize=thread).

#include "ins/name/symbol_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace ins {
namespace {

std::string Sym(size_t i) { return "sym-" + std::to_string(i); }

TEST(SymbolTableTest, InternAssignsDenseStableIds) {
  SymbolTable table;
  const SymbolId a = table.Intern("camera");
  const SymbolId b = table.Intern("resolution");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  // Re-interning returns the original id, forever.
  EXPECT_EQ(table.Intern("camera"), a);
  EXPECT_EQ(table.Intern("resolution"), b);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.NameOf(a), "camera");
  EXPECT_EQ(table.NameOf(b), "resolution");
}

TEST(SymbolTableTest, FindMissesUnknownWithoutInterning) {
  SymbolTable table;
  table.Intern("building");
  EXPECT_EQ(table.Find("wing"), kInvalidSymbol);
  EXPECT_EQ(table.size(), 1u);  // Find is read-only
  EXPECT_EQ(table.Find("building"), 0u);
}

TEST(SymbolTableTest, EmptyStringIsAnOrdinarySymbol) {
  SymbolTable table;
  const SymbolId e = table.Intern("");
  EXPECT_EQ(table.Find(""), e);
  EXPECT_EQ(table.NameOf(e), "");
}

TEST(SymbolTableTest, SurvivesIndexGrowthAcrossManySymbols) {
  // Far beyond any initial table capacity: forces several Grow() cycles and
  // multiple string chunks (1024 strings each).
  SymbolTable table;
  constexpr size_t kCount = 5000;
  std::vector<SymbolId> ids(kCount);
  for (size_t i = 0; i < kCount; ++i) {
    ids[i] = table.Intern(Sym(i));
    EXPECT_EQ(ids[i], static_cast<SymbolId>(i));
  }
  // Every id and string survives the retirements.
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(table.Find(Sym(i)), ids[i]);
    EXPECT_EQ(table.NameOf(ids[i]), Sym(i));
    EXPECT_EQ(table.Intern(Sym(i)), ids[i]);
  }
  EXPECT_EQ(table.size(), kCount);
  EXPECT_GT(table.MemoryBytes(), kCount * 4);  // strings + index are counted
}

TEST(SymbolTableTest, ConcurrentInternSameStringsAgreeOnIds) {
  // Writers racing to intern an overlapping vocabulary must converge on one
  // id per string.
  SymbolTable table;
  constexpr int kThreads = 8;
  constexpr size_t kVocab = 512;
  std::vector<std::vector<SymbolId>> seen(kThreads,
                                          std::vector<SymbolId>(kVocab));
  {
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (size_t i = 0; i < kVocab; ++i) {
          // Different walk order per thread to maximize collisions.
          const size_t j = (i * 17 + static_cast<size_t>(t) * 31) % kVocab;
          seen[t][j] = table.Intern(Sym(j));
        }
      });
    }
    for (auto& w : writers) w.join();
  }
  EXPECT_EQ(table.size(), kVocab);
  for (size_t j = 0; j < kVocab; ++j) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][j], seen[0][j]) << "divergent id for " << Sym(j);
    }
    EXPECT_EQ(table.NameOf(seen[0][j]), Sym(j));
  }
}

TEST(SymbolTableTest, LockFreeReadersRaceWritersSafely) {
  // Lock-free readers: Find()/NameOf() probe continuously
  // while writers intern fresh symbols, crossing chunk and index-growth
  // boundaries. Snapshot contract: a Find() may miss an in-flight intern,
  // but any published id must reverse-map to exactly the interned bytes.
  SymbolTable table;
  constexpr size_t kTotal = 4096;
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const size_t published = table.size();
        for (size_t i = 0; i < published; ++i) {
          const SymbolId id = static_cast<SymbolId>(i);
          EXPECT_EQ(table.NameOf(id), Sym(i));
        }
        // Probing a string either misses or returns its one true id.
        const SymbolId found = table.Find(Sym(kTotal / 2));
        if (found != kInvalidSymbol) {
          EXPECT_EQ(found, static_cast<SymbolId>(kTotal / 2));
        }
      }
    });
  }

  std::thread writer([&] {
    for (size_t i = 0; i < kTotal; ++i) {
      ASSERT_EQ(table.Intern(Sym(i)), static_cast<SymbolId>(i));
    }
    done.store(true, std::memory_order_release);
  });

  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(table.size(), kTotal);
}

TEST(SymbolTableTest, SnapshotIsolationNeverShowsUnpublishedIds) {
  // A reader that captures size() sees a fully usable prefix: every id below
  // the captured count resolves, and Find() of those strings returns ids
  // inside the prefix it captured or later (monotone growth), never garbage.
  SymbolTable table;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (size_t i = 0; i < 2048; ++i) table.Intern(Sym(i));
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    const size_t snapshot = table.size();
    for (size_t i = 0; i < snapshot; ++i) {
      const SymbolId id = table.Find(Sym(i));
      ASSERT_NE(id, kInvalidSymbol) << "published symbol vanished";
      ASSERT_LT(id, table.size());
    }
  }
  writer.join();
}

}  // namespace
}  // namespace ins
