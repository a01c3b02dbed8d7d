#include "src/core/plan_cache.h"

#include <gtest/gtest.h>

#include "src/core/smoqe.h"
#include "src/workload/workloads.h"
#include "tests/test_util.h"

namespace smoqe::core {
namespace {

using testutil::kHospitalDoc;

PlanCache::Key MakeKey(const std::string& view, uint64_t fp,
                       const std::string& query) {
  PlanCache::Key k;
  k.view = view;
  k.view_fingerprint = fp;
  k.normalized_query = query;
  return k;
}

std::shared_ptr<const CompiledPlan> Dummy() {
  return std::make_shared<CompiledPlan>();
}

// ---------------------------------------------------------------------
// PlanCache unit behaviour: LRU order, counters, invalidation.
// ---------------------------------------------------------------------

TEST(PlanCacheTest, HitMissAndCounters) {
  PlanCache cache(4);
  auto key = MakeKey("v", 7, "a/b");
  EXPECT_EQ(cache.Lookup(key), nullptr);
  auto plan = Dummy();
  cache.Insert(key, plan);
  EXPECT_EQ(cache.Lookup(key), plan);
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(s.capacity, 4u);
}

TEST(PlanCacheTest, KeyDistinguishesViewFingerprintAndQuery) {
  PlanCache cache(8);
  cache.Insert(MakeKey("v", 1, "q"), Dummy());
  EXPECT_EQ(cache.Lookup(MakeKey("w", 1, "q")), nullptr);
  EXPECT_EQ(cache.Lookup(MakeKey("v", 2, "q")), nullptr);
  EXPECT_EQ(cache.Lookup(MakeKey("v", 1, "p")), nullptr);
  EXPECT_NE(cache.Lookup(MakeKey("v", 1, "q")), nullptr);
}

TEST(PlanCacheTest, LruEvictsColdestEntry) {
  PlanCache cache(2);
  auto a = MakeKey("", 0, "a");
  auto b = MakeKey("", 0, "b");
  auto c = MakeKey("", 0, "c");
  cache.Insert(a, Dummy());
  cache.Insert(b, Dummy());
  EXPECT_NE(cache.Lookup(a), nullptr);  // refresh a: b is now coldest
  cache.Insert(c, Dummy());             // evicts b
  EXPECT_NE(cache.Lookup(a), nullptr);
  EXPECT_EQ(cache.Lookup(b), nullptr);
  EXPECT_NE(cache.Lookup(c), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(PlanCacheTest, InvalidateViewDropsOnlyThatView) {
  PlanCache cache(8);
  cache.Insert(MakeKey("nurses", 1, "q1"), Dummy());
  cache.Insert(MakeKey("nurses", 1, "q2"), Dummy());
  cache.Insert(MakeKey("research", 2, "q1"), Dummy());
  cache.Insert(MakeKey("", 0, "q1"), Dummy());
  EXPECT_EQ(cache.InvalidateView("nurses"), 2u);
  EXPECT_EQ(cache.Lookup(MakeKey("nurses", 1, "q1")), nullptr);
  EXPECT_NE(cache.Lookup(MakeKey("research", 2, "q1")), nullptr);
  EXPECT_NE(cache.Lookup(MakeKey("", 0, "q1")), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(PlanCacheTest, ClearDropsEverything) {
  PlanCache cache(8);
  cache.Insert(MakeKey("", 0, "a"), Dummy());
  cache.Insert(MakeKey("v", 1, "b"), Dummy());
  cache.Clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.Lookup(MakeKey("", 0, "a")), nullptr);
}

// ---------------------------------------------------------------------
// Through the facade: cached plans answer exactly like fresh compiles,
// across roles and modes, and invalidation really recompiles.
// ---------------------------------------------------------------------

class SmoqePlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        engine_.RegisterDtd("hospital", workload::kHospitalDtd, "hospital")
            .ok());
    ASSERT_TRUE(engine_.LoadDocument("ward", kHospitalDoc).ok());
    ASSERT_TRUE(engine_
                    .DefineView("autism-group", "hospital",
                                workload::kHospitalPolicyAutism)
                    .ok());
    ASSERT_TRUE(engine_
                    .DefineView("research-group", "hospital",
                                workload::kHospitalPolicyResearch)
                    .ok());
  }

  Smoqe engine_;
};

TEST_F(SmoqePlanCacheTest, SecondQueryHitsTheCache) {
  auto first = engine_.Query("ward", "//medication");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.plan_cache_misses, 1u);
  EXPECT_EQ(first->stats.plan_cache_hits, 0u);
  auto second = engine_.Query("ward", "//medication");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.plan_cache_hits, 1u);
  EXPECT_EQ(second->answers_xml, first->answers_xml);
  PlanCacheStats s = engine_.plan_cache().stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST_F(SmoqePlanCacheTest, NormalizedQueryTextSharesOnePlan) {
  ASSERT_TRUE(engine_.Query("ward", "hospital/patient[visit]/pname").ok());
  auto variant =
      engine_.Query("ward", "  hospital / patient[ visit ] / pname ");
  ASSERT_TRUE(variant.ok());
  EXPECT_EQ(variant->stats.plan_cache_hits, 1u)
      << "surface variants must normalize to one cache entry";
}

TEST_F(SmoqePlanCacheTest, CachedAnswersIdenticalToFreshCompileAcrossRoles) {
  const char* queries[] = {"//medication", "//treatment",
                           "hospital/patient/treatment/medication",
                           "//patient[not(treatment)]"};
  for (const char* view : {"", "autism-group", "research-group"}) {
    for (const char* q : queries) {
      for (EvalMode mode : {EvalMode::kDom, EvalMode::kStax}) {
        QueryOptions cached;
        cached.view = view;
        cached.mode = mode;
        QueryOptions fresh = cached;
        fresh.bypass_plan_cache = true;
        auto warm = engine_.Query("ward", q, cached);   // populate
        auto hit = engine_.Query("ward", q, cached);    // served from cache
        auto direct = engine_.Query("ward", q, fresh);  // never cached
        ASSERT_TRUE(warm.ok() && hit.ok() && direct.ok())
            << view << " " << q;
        EXPECT_EQ(hit->stats.plan_cache_hits, 1u) << view << " " << q;
        EXPECT_EQ(direct->stats.plan_cache_misses, 1u);
        EXPECT_EQ(hit->answers_xml, direct->answers_xml) << view << " " << q;
        EXPECT_EQ(hit->unknown_labels, direct->unknown_labels);
      }
    }
  }
}

TEST_F(SmoqePlanCacheTest, ViewRedefinitionInvalidatesAndRecompiles) {
  QueryOptions opts;
  opts.view = "autism-group";
  auto before = engine_.Query("ward", "//medication", opts);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->answers_xml.size(), 1u);  // autism only
  // Warm the cache, then swap the view for the permissive research policy.
  ASSERT_TRUE(engine_.Query("ward", "//medication", opts).ok());
  ASSERT_TRUE(engine_
                  .DefineView("autism-group", "hospital",
                              workload::kHospitalPolicyResearch)
                  .ok());
  auto after = engine_.Query("ward", "//medication", opts);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->stats.plan_cache_misses, 1u)
      << "redefinition must force a recompile, not serve the stale plan";
  EXPECT_EQ(after->answers_xml.size(), 2u)
      << "the recompiled plan must see the new policy";
  EXPECT_GT(engine_.plan_cache().stats().invalidations, 0u);
}

TEST_F(SmoqePlanCacheTest, DtdReplacementInvalidatesDependentViews) {
  QueryOptions opts;
  opts.view = "autism-group";
  ASSERT_TRUE(engine_.Query("ward", "//medication", opts).ok());
  ASSERT_TRUE(engine_.Query("ward", "//medication", opts).ok());
  uint64_t invalidations_before = engine_.plan_cache().stats().invalidations;
  // Re-register the same DTD text: still a replacement, still invalidates.
  ASSERT_TRUE(
      engine_.RegisterDtd("hospital", workload::kHospitalDtd, "hospital")
          .ok());
  EXPECT_GT(engine_.plan_cache().stats().invalidations, invalidations_before);
  auto after = engine_.Query("ward", "//medication", opts);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->stats.plan_cache_misses, 1u);
  EXPECT_EQ(after->answers_xml.size(), 1u);  // same policy, same answers
}

TEST_F(SmoqePlanCacheTest, CapacityEvictionThroughFacade) {
  Smoqe small(/*plan_cache_capacity=*/2);
  ASSERT_TRUE(
      small.RegisterDtd("hospital", workload::kHospitalDtd, "hospital").ok());
  ASSERT_TRUE(small.LoadDocument("ward", kHospitalDoc).ok());
  ASSERT_TRUE(small.Query("ward", "//pname").ok());
  ASSERT_TRUE(small.Query("ward", "//date").ok());
  ASSERT_TRUE(small.Query("ward", "//test").ok());  // evicts //pname
  EXPECT_EQ(small.plan_cache().stats().evictions, 1u);
  auto again = small.Query("ward", "//pname");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.plan_cache_misses, 1u);
}

// ---------------------------------------------------------------------
// QueryBatch: many roles, one snapshot — answers identical to per-item Query.
// ---------------------------------------------------------------------

TEST_F(SmoqePlanCacheTest, BatchMatchesSequentialAcrossRolesAndModes) {
  std::vector<BatchQueryItem> items;
  for (const char* view : {"", "autism-group", "research-group"}) {
    for (const char* q :
         {"//medication", "//treatment", "//patient[not(treatment)]"}) {
      BatchQueryItem item;
      item.query = q;
      item.options.view = view;
      item.options.mode = EvalMode::kStax;
      items.push_back(item);
    }
  }
  // One DOM-mode item mixed in: same answer contract.
  BatchQueryItem dom_item;
  dom_item.query = "//pname";
  dom_item.options.mode = EvalMode::kDom;
  items.push_back(dom_item);

  auto batch = engine_.QueryBatch("ward", items);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    QueryOptions fresh = items[i].options;
    fresh.bypass_plan_cache = true;
    auto single = engine_.Query("ward", items[i].query, fresh);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batch)[i].answers_xml, single->answers_xml)
        << "item " << i << ": " << items[i].query << " view '"
        << items[i].options.view << "'";
  }
  // Batch items walk the DOM whatever their mode: no item shares a scan.
  EXPECT_EQ((*batch)[0].stats.batch_plans, 0u);
  EXPECT_EQ(batch->back().stats.batch_plans, 0u);
}

TEST_F(SmoqePlanCacheTest, BatchErrorPaths) {
  // An unknown *document* is a whole-call error — it names a catalog
  // problem, not an item problem.
  EXPECT_EQ(engine_.QueryBatch("nodoc", {}).status().code(),
            StatusCode::kNotFound);
  // Item-local failures fail only their item: the call succeeds, the bad
  // item's answer carries its status (naming the item index), siblings
  // evaluate normally.
  BatchQueryItem good;
  good.query = "//pname";
  BatchQueryItem bad;
  bad.query = "a[[";
  BatchQueryItem noview;
  noview.query = "a";
  noview.options.view = "ghost";
  BatchQueryItem tax_stream;
  tax_stream.query = "a";
  tax_stream.options.mode = EvalMode::kStax;
  tax_stream.options.use_tax = true;
  auto mixed = engine_.QueryBatch("ward", {good, bad, noview, tax_stream});
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  ASSERT_EQ(mixed->size(), 4u);
  EXPECT_TRUE((*mixed)[0].status.ok());
  EXPECT_FALSE((*mixed)[0].answers_xml.empty());
  EXPECT_EQ((*mixed)[1].status.code(), StatusCode::kParseError);
  EXPECT_NE((*mixed)[1].status.message().find("batch item 1"),
            std::string::npos);
  EXPECT_EQ((*mixed)[2].status.code(), StatusCode::kNotFound);
  EXPECT_NE((*mixed)[2].status.message().find("batch item 2"),
            std::string::npos);
  EXPECT_EQ((*mixed)[3].status.code(), StatusCode::kInvalidArgument);
  // Failed items produce nothing besides their status.
  EXPECT_TRUE((*mixed)[1].answers_xml.empty());
  EXPECT_TRUE((*mixed)[3].answers_xml.empty());
  // The good item's answers match a standalone Query.
  auto single = engine_.Query("ward", "//pname");
  ASSERT_TRUE(single.ok());
  EXPECT_EQ((*mixed)[0].answers_xml, single->answers_xml);
  // An all-bad batch still succeeds as a call.
  auto all_bad = engine_.QueryBatch("ward", {bad, noview});
  ASSERT_TRUE(all_bad.ok());
  EXPECT_FALSE((*all_bad)[0].status.ok());
  EXPECT_FALSE((*all_bad)[1].status.ok());
  // An empty batch is fine.
  auto empty = engine_.QueryBatch("ward", {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  // QueryBatchMulti: same per-item semantics, whole-call on unknown doc.
  DocBatchItem multi_good{"ward", "//pname", {}};
  DocBatchItem multi_bad{"ward", "a[[", {}};
  auto multi = engine_.QueryBatchMulti({multi_good, multi_bad});
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  EXPECT_TRUE((*multi)[0].status.ok());
  EXPECT_EQ((*multi)[0].answers_xml, single->answers_xml);
  EXPECT_EQ((*multi)[1].status.code(), StatusCode::kParseError);
  DocBatchItem multi_nodoc{"nodoc", "a", {}};
  EXPECT_EQ(engine_.QueryBatchMulti({multi_good, multi_nodoc}).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace smoqe::core
