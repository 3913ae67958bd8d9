// Ablation — §5.1.1 lookup-cost analysis: hash-based name-tree vs. linear
// structures, and the posting-list index vs. the Figure-5 tree walk.
//
// The paper derives T(d) = Θ(n_a^d (r_a + r_v + b)) for linear attribute/
// value search and Θ(n_a^d (1 + b)) with hash tables, and argues d stays
// small in practice. This bench measures:
//   * the hash-based NameTree (the shipped implementation),
//   * the LinearNameTable baseline (no shared structure: Matches() over
//     every advertisement — the degenerate end of the analysis),
// across tree size n and name depth d, confirming (i) the tree's lookup cost
// is roughly flat in n while the linear scan degrades linearly, and (ii)
// cost grows with n_a^d (the per-name work), not with vocabulary size.
//
// The *Conjunctive pair extends the ablation to the million-name regime the
// index targets: a service-directory-shaped workload (a broad svc family ×
// a narrow unit id per record) where the walk's cost is dominated by
// collecting the broad conjunct's subtree while the index streams the rare
// posting and probes a bitmap. Both engines run against the SAME tree —
// BM_IndexConjunctive through Lookup() (posting-list path), and
// BM_WalkConjunctive through LookupTreeWalk() (index bypassed) — and the
// binary REFUSES to run (exit 1) unless both return hash-identical result
// sets on every query at 10^5 names. CI's gate additionally requires
// index-on >= 5x walk throughput at 10^5 (see ci.yml), using the
// `result_hash` counters emitted here to re-assert set identity from JSON.
//
// The *PaperHit pair runs the path early binding actually takes: the
// paper's own name shape (GenerateUniformName(kPaperLookupParams), 10^5
// names) queried with DeriveQuery(0.95, 0) of advertised names, so every
// query hits and the posting lists are all of similar length. It carries the
// same startup parity check and `result_hash` counters, and its own CI gate.

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench_support.h"
#include "ins/baseline/linear_name_table.h"
#include "ins/workload/namegen.h"

namespace {

using namespace ins;

// ---------------------------------------------------------------------------
// Conjunctive million-name workload (index-on/off ablation).
// ---------------------------------------------------------------------------

// Record i advertises [svc=s{i%32} [inst=n{i%4096}]] [unit=u{i%509}]:
// svc selects 1/32 of the tree (a dense bitmap posting), unit 1/509 (a rare
// sorted posting; 509 is prime so the two moduli stay independent). Their
// conjunction matches ~n/16k records.
constexpr size_t kSvcFamilies = 32;
constexpr size_t kInstSlots = 4096;
constexpr size_t kUnitSlots = 509;

NameSpecifier ConjName(size_t i) {
  NameSpecifier n;
  n.AddPath({{"svc", "s" + std::to_string(i % kSvcFamilies)},
             {"inst", "n" + std::to_string(i % kInstSlots)}});
  n.AddPath({{"unit", "u" + std::to_string(i % kUnitSlots)}});
  return n;
}

void PopulateConjTree(NameTree* tree, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    NameRecord rec;
    rec.announcer = AnnouncerId{0x0a000000u + static_cast<uint32_t>(i + 1), 1000,
                                static_cast<uint32_t>(i)};
    rec.expires = Seconds(1u << 30);
    rec.version = 1;
    tree->Upsert(ConjName(i), rec);
  }
}

// 256 two-conjunct literal queries [svc=s?][unit=u?] cycling over the
// families; the 7q+3 stride decorrelates the pair from the population.
std::vector<CompiledName> MakeConjQueries(const NameTree& tree) {
  std::vector<CompiledName> out;
  out.reserve(256);
  for (size_t q = 0; q < 256; ++q) {
    NameSpecifier spec;
    spec.AddPath({{"svc", "s" + std::to_string(q % kSvcFamilies)}});
    spec.AddPath({{"unit", "u" + std::to_string((q * 7 + 3) % kUnitSlots)}});
    out.push_back(CompiledName::ForQuery(spec, tree.symbols()));
  }
  return out;
}

// FNV-1a over the announcer identities of every query's result set, in
// result order. Identical across engines iff the result sets are identical.
uint64_t ResultHash(const std::vector<const NameRecord*>& recs) {
  uint64_t h = UINT64_C(0xcbf29ce484222325);
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= UINT64_C(0x100000001b3);
  };
  for (const NameRecord* r : recs) {
    mix(r->announcer.ip);
    mix(r->announcer.start_time_us);
    mix(r->announcer.discriminator);
  }
  return h;
}

template <typename LookupFn>
uint64_t HashAllQueries(const std::vector<CompiledName>& queries, LookupFn&& lookup) {
  uint64_t h = UINT64_C(0x84222325cbf29ce4);
  for (const CompiledName& q : queries) {
    h ^= ResultHash(lookup(q));
    h *= UINT64_C(0x100000001b3);
  }
  return h;
}

// 256 queries over 10^5 GenerateUniformName(kPaperLookupParams) names, each
// DeriveQuery(0.95, 0) of an advertised name: the shape early binding sends,
// where every query hits and most answers hold a handful of records.
void BuildPaperHitWorkload(size_t n, NameTree* tree, std::vector<CompiledName>* queries) {
  Rng rng(42);
  const std::vector<NameSpecifier> ads = bench::PopulateTree(tree, n, rng);
  queries->clear();
  for (size_t q = 0; q < 256; ++q) {
    const NameSpecifier& ad = ads[rng.NextBelow(ads.size())];
    queries->push_back(
        CompiledName::ForQuery(DeriveQuery(rng, ad, 0.95, 0.0), tree->symbols()));
  }
}

void BuildConjWorkload(size_t n, NameTree* tree, std::vector<CompiledName>* queries) {
  PopulateConjTree(tree, n);
  *queries = MakeConjQueries(*tree);
}

using BuildFn = void (*)(size_t, NameTree*, std::vector<CompiledName>*);

// Exits the process unless the index path and the tree walk return
// hash-identical result sets for every query of the workload at `n` names.
// Runs before the benchmarks so a semantic divergence can never be reported
// as a speedup.
void VerifyParityOrDie(const char* workload, BuildFn build, size_t n) {
  NameTree tree;
  std::vector<CompiledName> queries;
  build(n, &tree, &queries);
  NameTree::LookupScratch scratch;
  size_t nonempty = 0;
  for (const CompiledName& q : queries) {
    const auto via_index = tree.Lookup(q, &scratch);
    const auto via_walk = tree.LookupTreeWalk(q, &scratch);
    nonempty += via_index.empty() ? 0 : 1;
    if (ResultHash(via_index) != ResultHash(via_walk)) {
      std::fprintf(stderr,
                   "FATAL: %s index/walk result divergence at n=%zu "
                   "(index=%zu records, walk=%zu records)\n",
                   workload, n, via_index.size(), via_walk.size());
      std::exit(1);
    }
  }
  const PostingIndexStats stats = tree.index_stats();
  if (stats.index_lookups == 0 || nonempty == 0) {
    std::fprintf(stderr,
                 "FATAL: %s parity check did not exercise the index path "
                 "(index_lookups=%llu, nonempty=%zu)\n",
                 workload, static_cast<unsigned long long>(stats.index_lookups), nonempty);
    std::exit(1);
  }
  std::printf("parity: %s, %zu queries at n=%zu, index==walk, %zu non-empty\n", workload,
              queries.size(), n, nonempty);
}

// One engine over one workload: Lookup() (posting-list path) or
// LookupTreeWalk() (index bypassed), against the same tree.
void RunEngine(benchmark::State& state, BuildFn build, bool walk) {
  const size_t n = static_cast<size_t>(state.range(0));
  NameTree tree;
  std::vector<CompiledName> queries;
  build(n, &tree, &queries);
  NameTree::LookupScratch scratch;
  auto lookup = [&](const CompiledName& q) {
    return walk ? tree.LookupTreeWalk(q, &scratch) : tree.Lookup(q, &scratch);
  };
  // Truncated to stay exact in a double.
  state.counters["result_hash"] = static_cast<double>(HashAllQueries(queries, lookup) >> 24);
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lookup(queries[qi]));
    qi = (qi + 1) % queries.size();
  }
  state.counters["lookups_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  if (!walk) {
    state.counters["index_bytes"] = static_cast<double>(tree.ComputeStats().index_bytes);
  }
}

void BM_IndexConjunctive(benchmark::State& state) {
  RunEngine(state, BuildConjWorkload, /*walk=*/false);
}
void BM_WalkConjunctive(benchmark::State& state) {
  RunEngine(state, BuildConjWorkload, /*walk=*/true);
}
void BM_IndexPaperHit(benchmark::State& state) {
  RunEngine(state, BuildPaperHitWorkload, /*walk=*/false);
}
void BM_WalkPaperHit(benchmark::State& state) {
  RunEngine(state, BuildPaperHitWorkload, /*walk=*/true);
}

BENCHMARK(BM_IndexConjunctive)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WalkConjunctive)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_IndexPaperHit)->Arg(100000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WalkPaperHit)->Arg(100000)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Hash tree vs linear scan (the original §5.1.1 ablation).
// ---------------------------------------------------------------------------

std::vector<NameSpecifier> MakeQueries(Rng& rng, const UniformNameParams& shape) {
  std::vector<NameSpecifier> queries;
  queries.reserve(256);
  for (int i = 0; i < 256; ++i) {
    queries.push_back(GenerateUniformName(rng, shape));
  }
  return queries;
}

void BM_TreeLookup(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const UniformNameParams shape{3, 3, 2, static_cast<size_t>(state.range(1))};
  Rng rng(42);
  NameTree tree;
  bench::PopulateTree(&tree, n, rng, shape);
  auto queries = MakeQueries(rng, shape);
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(queries[qi]));
    qi = (qi + 1) % queries.size();
  }
  state.counters["lookups_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_LinearLookup(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const UniformNameParams shape{3, 3, 2, static_cast<size_t>(state.range(1))};
  Rng rng(42);
  LinearNameTable table;
  for (size_t i = 0; i < n; ++i) {
    NameRecord rec;
    rec.announcer = AnnouncerId{0x0a000000u + static_cast<uint32_t>(i + 1), 1000, 0};
    rec.expires = Seconds(1u << 30);
    rec.version = 1;
    table.Upsert(GenerateUniformName(rng, shape), rec);
  }
  auto queries = MakeQueries(rng, shape);
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Lookup(queries[qi]));
    qi = (qi + 1) % queries.size();
  }
  state.counters["lookups_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

// n sweep at the paper's depth (d=3): tree ~flat, linear degrades with n.
BENCHMARK(BM_TreeLookup)->Args({100, 3})->Args({1000, 3})->Args({5000, 3})->Args({14300, 3});
BENCHMARK(BM_LinearLookup)->Args({100, 3})->Args({1000, 3})->Args({5000, 3})->Args({14300, 3});

// d sweep at fixed n: both grow with n_a^d, as the analysis predicts.
BENCHMARK(BM_TreeLookup)->Args({2000, 1})->Args({2000, 2})->Args({2000, 3})->Args({2000, 4});

}  // namespace

int main(int argc, char** argv) {
  bench::Banner(
      "Ablation (analysis 5.1.1): hash name-tree vs linear scan",
      "T(d) = Theta(n_a^d (1+b)) hashed vs Theta(n_a^d (r_a+r_v+b)) linear; the "
      "tree's advantage grows with the number of names");
  VerifyParityOrDie("conjunctive", BuildConjWorkload, 100000);
  VerifyParityOrDie("paper-shape hit", BuildPaperHitWorkload, 100000);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
