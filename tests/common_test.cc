#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/cache/artifact_catalog.h"
#include "src/common/hash.h"
#include "src/common/mutex.h"
#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/core/physical_plan.h"
#include "src/core/pipeline.h"
#include "src/obs/telemetry.h"
#include "src/ops/convolution.h"
#include "src/ops/text_ops.h"
#include "src/sim/faults/fault_plan.h"
#include "tests/test_operators.h"

namespace keystone {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, NextIndexInRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextIndex(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  // All 10 buckets should be hit with 1000 draws.
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng forked = a.Fork();
  // The fork should not replay the parent's stream.
  Rng b(21);
  b.Fork();
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), forked.NextU64());
}

TEST(HashTest, Fnv1aMatchesReferenceVectors) {
  EXPECT_EQ(Fnv1a(kFnvOffsetBasis, ""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a(kFnvOffsetBasis, "a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a(kFnvOffsetBasis, "foobar"), 0x85944171f73967e8ULL);
  // Incremental folding equals hashing the concatenation.
  EXPECT_EQ(Fnv1a(Fnv1a(kFnvOffsetBasis, "foo"), "bar"),
            Fnv1a(kFnvOffsetBasis, "foobar"));
  // A word folds as its bytes, least significant first.
  const char le_bytes[] = {'\xef', '\xcd', '\xab', '\x89',
                           '\x67', '\x45', '\x23', '\x01'};
  EXPECT_EQ(Fnv1aWord(kFnvOffsetBasis, 0x0123456789abcdefULL),
            Fnv1a(kFnvOffsetBasis, std::string_view(le_bytes, 8)));
}

TEST(HashTest, SplitMix64MatchesReferenceSequence) {
  // The reference generator seeded with 0, one state increment per output.
  EXPECT_EQ(SplitMix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64(kSplitMix64Gamma), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(SplitMix64(2 * kSplitMix64Gamma), 0x06c45d188009454fULL);
}

// Every caller of the shared hash keeps the exact values it produced with
// its own copy: lineage fingerprints and catalog object names are
// persisted, featurizer indices and the Convolver signature shape models
// and fingerprints, and fault draws and trace sampling must replay.
TEST(HashTest, EveryCallerKeepsItsPinnedHash) {
  // Lineage fingerprint (standard basis).
  auto train = DistDataset<double>::Partitioned({1, 2, 3, 4}, 2);
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<testing_ops::Scale>(2.0))
                  .AndThen(std::make_shared<testing_ops::MeanCenterer>(),
                           train);
  const PhysicalPlan plan = LowerToPhysical(
      std::make_shared<PipelineGraph>(*pipe.graph()), pipe.source(),
      pipe.sink(), OptimizationConfig::Full(),
      ClusterResourceDescriptor::R3_4xlarge(4));
  bool found = false;
  for (const PlannedNode& pn : plan.nodes) {
    if (pn.kind != NodeKind::kEstimator) continue;
    EXPECT_EQ(pn.lineage_fingerprint,
              "Estimator|MeanCenterer(1)|4#79acd735ed7a940d");
    found = true;
  }
  EXPECT_TRUE(found);

  // Catalog object name (standard basis).
  const std::string root = ::testing::TempDir() + "/hash_pin_catalog";
  std::filesystem::remove_all(root);
  cache::CatalogConfig config;
  config.root = root;
  cache::ArtifactCatalog catalog{config};
  auto rows = std::make_shared<DistDataset<std::vector<double>>>(
      std::vector<std::vector<std::vector<double>>>{{{1, 2}}});
  ASSERT_TRUE(catalog.Put("pinned-key", rows, 16.0, 1, 1.0));
  EXPECT_TRUE(
      std::filesystem::exists(root + "/objects/6228bafaee84a69d.art"));
  std::filesystem::remove_all(root);

  // Hashing featurizer (historical basis).
  const SparseVector features =
      HashingTermFrequency(1 << 20).Apply({"keystone"});
  ASSERT_EQ(features.indices.size(), 1u);
  EXPECT_EQ(features.indices[0], 977447u);

  // Convolver weight digest (historical basis).
  Rng bank_rng(5);
  const Convolver conv(FilterBank::Random(2, 3, 1, &bank_rng),
                       ConvolutionStrategy::kBlas);
  EXPECT_EQ(conv.ParamSignature(), "2x3x1,fcb0177171ed52fd");

  // Fault draw (historical basis + SplitMix64 + Rng).
  faults::FaultInjectionConfig fault_config;
  fault_config.seed = 7;
  fault_config.task_failure_rate = 1.0;
  const faults::FaultDraw draw = faults::FaultPlan(fault_config)
                                     .DrawFor(3, "Transformer|Scale(2)|4", 0);
  EXPECT_TRUE(draw.fails);
  EXPECT_EQ(draw.fail_fraction, 0.86777754672271235);

  // Trace sampling (historical basis + SplitMix64).
  const obs::TraceSampler sampler(0.5, 7);
  uint64_t sampled = 0;
  for (uint64_t id = 0; id < 64; ++id) {
    if (sampler.Sample("tenant-a", id)) sampled |= uint64_t{1} << id;
  }
  EXPECT_EQ(sampled, 0xa4fde660c321db93ULL);

  // Rng seeding (SplitMix64).
  Rng rng(42);
  EXPECT_EQ(rng.NextU64(), 0x15780b2e0c2ec716ULL);
}

TEST(StringUtilTest, SplitBasic) {
  const auto pieces = SplitString("a,b,,c", ",");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
}

TEST(StringUtilTest, SplitMultipleDelims) {
  const auto pieces = SplitString("one two\tthree\nfour", " \t\n");
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[3], "four");
}

TEST(StringUtilTest, SplitEmpty) {
  EXPECT_TRUE(SplitString("", ",").empty());
  EXPECT_TRUE(SplitString(",,,", ",").empty());
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLowerAscii("HeLLo WoRLD 123"), "hello world 123");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  hi there \n"), "hi there");
  EXPECT_EQ(TrimWhitespace("\t\n "), "");
  EXPECT_EQ(TrimWhitespace("x"), "x");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(3.0 * 1024 * 1024 * 1024), "3.00 GB");
}

TEST(StringUtilTest, EscapeTokenRoundTrips) {
  // The characters the whitespace-separated store formats must escape:
  // the escape character itself, spaces, tabs, newlines — alone, repeated,
  // and mixed with ordinary text.
  const std::vector<std::string> cases = {
      "",        "plain",      "%",          "%%",         "a b",
      " lead",   "trail ",     "tab\there",  "nl\nhere",   "%20",
      "100% of tokens", "a %x b", "% % %",   "mixed %\t\n done"};
  for (const std::string& original : cases) {
    const std::string escaped = EscapeToken(original);
    // Escaped form is a single whitespace-free token.
    EXPECT_EQ(escaped.find(' '), std::string::npos) << original;
    EXPECT_EQ(escaped.find('\t'), std::string::npos) << original;
    EXPECT_EQ(escaped.find('\n'), std::string::npos) << original;
    const auto back = UnescapeToken(escaped);
    ASSERT_TRUE(back.has_value()) << original;
    EXPECT_EQ(*back, original);
  }
}

TEST(StringUtilTest, UnescapeTokenRejectsMalformedEscapes) {
  // Truncated escapes at end of input (the std::stoi crash shape: "%" and
  // "%x" used to throw out of UnescapeToken) and non-hex digits all report
  // corruption as nullopt instead of throwing.
  EXPECT_FALSE(UnescapeToken("%").has_value());
  EXPECT_FALSE(UnescapeToken("%x").has_value());
  EXPECT_FALSE(UnescapeToken("token%").has_value());
  EXPECT_FALSE(UnescapeToken("token%2").has_value());
  EXPECT_FALSE(UnescapeToken("%zz").has_value());
  EXPECT_FALSE(UnescapeToken("%2g").has_value());
  // Well-formed escapes still decode.
  EXPECT_EQ(UnescapeToken("%25").value(), "%");
  EXPECT_EQ(UnescapeToken("a%20b").value(), "a b");
}

TEST(StringUtilTest, WriteFileAtomicReplacesWholeFile) {
  const std::string path = ::testing::TempDir() + "/atomic_write.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "first version"));
  ASSERT_TRUE(WriteFileAtomic(path, "second"));
  std::ifstream in(path);
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), "second");
  // The temp file never outlives a successful write.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

/// Counts finished tasks; the submitter waits on it, since the pool itself
/// never waits for submitted work.
class DoneCounter {
 public:
  void Add() {
    MutexLock lock(&mu_);
    ++done_;
    changed_.NotifyAll();
  }
  void WaitFor(int n) {
    MutexLock lock(&mu_);
    while (done_ < n) changed_.Wait(&mu_);
  }

 private:
  Mutex mu_;
  CondVar changed_;
  int done_ = 0;
};

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  DoneCounter done;
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count, &done] {
      count.fetch_add(1);
      done.Add();
    });
  }
  done.WaitFor(100);
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForInsideAPoolTask) {
  // Both workers run a task that loops over the same pool, so no worker is
  // left to run a loop's helpers: each task claims its own iterations.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits[2] = {std::vector<std::atomic<int>>(1000),
                                           std::vector<std::atomic<int>>(1000)};
  DoneCounter started;
  DoneCounter done;
  for (int t = 0; t < 2; ++t) {
    pool.Submit([&pool, &hits, &started, &done, t] {
      started.Add();
      started.WaitFor(2);  // hold both workers
      pool.ParallelFor(1000, [&hits, t](size_t i) { hits[t][i].fetch_add(1); });
      done.Add();
    });
  }
  done.WaitFor(2);
  for (const auto& loop : hits) {
    for (const auto& h : loop) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForIgnoresUnrelatedTasks) {
  ThreadPool pool(2);
  Mutex mu;
  CondVar flag_set;
  bool flag = false;
  DoneCounter done;
  pool.Submit([&] {
    {
      MutexLock lock(&mu);
      while (!flag) flag_set.Wait(&mu);
    }
    done.Add();
  });
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // ParallelFor returned while the unrelated task is still blocked.
  {
    MutexLock lock(&mu);
    flag = true;
  }
  flag_set.NotifyAll();
  done.WaitFor(1);
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(MutexTest, LockUnlockAndScopedLock) {
  Mutex mu(kLockRankLedger);
  mu.Lock();
  mu.Unlock();
  {
    MutexLock lock(&mu);
  }
  EXPECT_EQ(mu.rank(), kLockRankLedger);
}

TEST(MutexTest, AscendingRanksAreAllowed) {
  Mutex low(kLockRankLedger);
  Mutex high(kLockRankMetricsShard);
  MutexLock outer(&low);
  MutexLock inner(&high);  // ledger < metrics shard: fine
}

TEST(MutexDeathTest, DescendingRanksAbort) {
#ifdef NDEBUG
  GTEST_SKIP() << "the lock-order checker is compiled out under NDEBUG";
#else
  EXPECT_DEATH(
      {
        Mutex low(kLockRankLedger);
        Mutex high(kLockRankMetricsShard);
        MutexLock outer(&high);
        MutexLock inner(&low);  // metrics shard -> ledger: order violation
      },
      "lock-order violation");
#endif
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + std::sqrt(static_cast<double>(i));
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());
}

}  // namespace
}  // namespace keystone
