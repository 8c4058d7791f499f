/// PR 9 observability: the always-on hierarchical profiler (tfc::obs::prof)
/// — tree shape, windowed snapshot-and-reset discipline, self/total/min/max
/// statistics, the collapsed-stack and JSON exporters, the overhead model,
/// and cross-thread (live + retired) merging.
#include "obs/prof.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "io/json.h"
#include "obs/obs.h"

namespace tfc::obs::prof {
namespace {

/// Busy-wait so a span has a guaranteed-nonzero wall time without relying
/// on sleep granularity.
void spin_ns(std::int64_t ns) {
  const std::int64_t t0 = prof_now_ns();
  while (prof_now_ns() - t0 < ns) {
  }
}

const ProfileNode* find(const std::vector<ProfileNode>& list, const std::string& name) {
  for (const auto& n : list) {
    if (n.name == name) return &n;
  }
  return nullptr;
}

/// Enable the profiler and discard everything recorded before this test.
void fresh_window() {
  Profiler::global().enable();
  (void)Profiler::global().snapshot(true);
}

void teardown() {
  Profiler::global().disable();
  (void)Profiler::global().snapshot(true);
}

TEST(Prof, DisabledSpansRecordNothing) {
  fresh_window();
  Profiler::global().disable();
  { TFC_SPAN("prof_test_disabled"); }
  const auto snap = Profiler::global().snapshot(true);
  EXPECT_FALSE(snap.enabled);
  EXPECT_EQ(find(snap.roots, "prof_test_disabled"), nullptr);
  teardown();
}

TEST(Prof, NestedSpansBuildTreeKeyedByPath) {
  fresh_window();
  {
    TFC_SPAN("prof_test_outer");
    { TFC_SPAN("prof_test_inner"); }
    { TFC_SPAN("prof_test_inner"); }
  }
  { TFC_SPAN("prof_test_inner"); }  // same name, different path => new root
  const auto snap = Profiler::global().snapshot(true);

  const ProfileNode* outer = find(snap.roots, "prof_test_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);
  const ProfileNode* inner = find(outer->children, "prof_test_inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u);
  const ProfileNode* root_inner = find(snap.roots, "prof_test_inner");
  ASSERT_NE(root_inner, nullptr);
  EXPECT_EQ(root_inner->count, 1u);
  teardown();
}

TEST(Prof, SelfIsTotalMinusChildren) {
  fresh_window();
  {
    TFC_SPAN("prof_test_parent");
    spin_ns(2'000'000);
    {
      TFC_SPAN("prof_test_child");
      spin_ns(2'000'000);
    }
  }
  const auto snap = Profiler::global().snapshot(true);
  const ProfileNode* parent = find(snap.roots, "prof_test_parent");
  ASSERT_NE(parent, nullptr);
  const ProfileNode* child = find(parent->children, "prof_test_child");
  ASSERT_NE(child, nullptr);
  EXPECT_GE(parent->total_ns, child->total_ns);
  EXPECT_EQ(parent->child_ns, child->total_ns);
  EXPECT_EQ(parent->self_ns(), parent->total_ns - parent->child_ns);
  EXPECT_GE(parent->self_ns(), 1'000'000u);  // spun 2 ms outside the child
  EXPECT_GE(child->self_ns(), 1'000'000u);
  teardown();
}

TEST(Prof, MinMaxTrackExtremesPerWindow) {
  fresh_window();
  { TFC_SPAN("prof_test_minmax"); }  // ~0 ns
  {
    TFC_SPAN("prof_test_minmax");
    spin_ns(2'000'000);
  }
  const auto snap = Profiler::global().snapshot(true);
  const ProfileNode* n = find(snap.roots, "prof_test_minmax");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->count, 2u);
  EXPECT_LE(n->min_ns, n->max_ns);
  EXPECT_GE(n->max_ns, 2'000'000u);
  EXPECT_LT(n->min_ns, 2'000'000u);
  teardown();
}

TEST(Prof, WindowedResetCountsEachFrameExactlyOnce) {
  fresh_window();
  for (int k = 0; k < 3; ++k) {
    TFC_SPAN("prof_test_window");
  }
  const auto first = Profiler::global().snapshot(true);
  const ProfileNode* n1 = find(first.roots, "prof_test_window");
  ASSERT_NE(n1, nullptr);
  EXPECT_EQ(n1->count, 3u);
  EXPECT_TRUE(first.windowed);

  // The window was drained: an immediate second reset snapshot is empty.
  const auto second = Profiler::global().snapshot(true);
  EXPECT_EQ(find(second.roots, "prof_test_window"), nullptr);

  { TFC_SPAN("prof_test_window"); }
  { TFC_SPAN("prof_test_window"); }
  const auto third = Profiler::global().snapshot(true);
  const ProfileNode* n3 = find(third.roots, "prof_test_window");
  ASSERT_NE(n3, nullptr);
  EXPECT_EQ(n3->count, 2u);
  teardown();
}

TEST(Prof, CumulativeSnapshotDoesNotDrain) {
  fresh_window();
  { TFC_SPAN("prof_test_cumulative"); }
  const auto a = Profiler::global().snapshot(false);
  const auto b = Profiler::global().snapshot(false);
  const ProfileNode* na = find(a.roots, "prof_test_cumulative");
  const ProfileNode* nb = find(b.roots, "prof_test_cumulative");
  ASSERT_NE(na, nullptr);
  ASSERT_NE(nb, nullptr);
  EXPECT_EQ(na->count, 1u);
  EXPECT_EQ(nb->count, 1u);
  EXPECT_FALSE(a.windowed);
  teardown();
}

TEST(Prof, ThreadsMergeByNamePathIncludingRetired) {
  fresh_window();
  constexpr int kThreads = 4;
  constexpr int kSpansEach = 25;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int k = 0; k < kSpansEach; ++k) {
        TFC_SPAN("prof_test_worker_root");
        TFC_SPAN("prof_test_worker_leaf");
      }
    });
  }
  for (auto& w : workers) w.join();  // threads exited => trees retired

  { TFC_SPAN("prof_test_worker_root"); }  // main thread merges into same path
  const auto snap = Profiler::global().snapshot(true);
  const ProfileNode* root = find(snap.roots, "prof_test_worker_root");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->count, std::uint64_t(kThreads * kSpansEach + 1));
  const ProfileNode* leaf = find(root->children, "prof_test_worker_leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->count, std::uint64_t(kThreads * kSpansEach));
  teardown();
}

TEST(Prof, AggregateByNameSumsEveryTreePosition) {
  fresh_window();
  {
    TFC_SPAN("prof_test_agg_a");
    spin_ns(1'000'000);
    {
      TFC_SPAN("prof_test_agg_b");
      spin_ns(3'000'000);
    }
  }
  { TFC_SPAN("prof_test_agg_b"); }  // root position of the same name
  const auto snap = Profiler::global().snapshot(true);
  const auto stats = aggregate_by_name(snap);
  const NameStat* sa = nullptr;
  const NameStat* sb = nullptr;
  for (const auto& s : stats) {
    if (s.name == "prof_test_agg_a") sa = &s;
    if (s.name == "prof_test_agg_b") sb = &s;
  }
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(sb->count, 2u);  // both tree positions summed
  EXPECT_EQ(sa->count, 1u);
  // Each self time covers at least its own spin. Preemption can stretch
  // either spin, so the order between a and b is not asserted.
  EXPECT_GE(sb->self_ns, 3'000'000u);
  EXPECT_GE(sa->self_ns, 1'000'000u);
  // The aggregate is sorted by self time, descending.
  for (std::size_t k = 1; k < stats.size(); ++k) {
    EXPECT_GE(stats[k - 1].self_ns, stats[k].self_ns) << "entry " << k;
  }
  teardown();
}

TEST(Prof, CollapsedExportGrammarAndSanitization) {
  fresh_window();
  // Direct enter/leave with a hostile name: the exporter must sanitize the
  // separator characters so flamegraph.pl still parses the line.
  Frame f = enter("bad name;with\tseps");
  spin_ns(1'500'000);
  leave(f);
  {
    TFC_SPAN("prof_test_collapsed_root");
    spin_ns(1'500'000);
    {
      TFC_SPAN("prof_test_collapsed_leaf");
      spin_ns(1'500'000);
    }
  }
  const auto snap = Profiler::global().snapshot(true);
  const std::string text = to_collapsed(snap);

  EXPECT_NE(text.find("bad_name_with_seps "), std::string::npos);
  EXPECT_NE(text.find("prof_test_collapsed_root;prof_test_collapsed_leaf "),
            std::string::npos);
  // Grammar: every line is `frame(;frame)* <integer>`.
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);  // exporter terminates every line
    const std::string line = text.substr(start, end - start);
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(space, 0u) << line;
    const std::string count = line.substr(space + 1);
    ASSERT_FALSE(count.empty()) << line;
    for (char c : count) EXPECT_TRUE(c >= '0' && c <= '9') << line;
    EXPECT_EQ(line.find(' '), space) << line;  // single space, before count
    for (const char* bad : {";;", " ;", "; "}) {
      EXPECT_EQ(line.find(bad), std::string::npos) << line;
    }
    start = end + 1;
  }
  teardown();
}

TEST(Prof, JsonExportParsesWithDocumentedShape) {
  fresh_window();
  {
    TFC_SPAN("prof_test_json_root");
    spin_ns(1'000'000);
    { TFC_SPAN("prof_test_json_leaf"); }
  }
  const auto snap = Profiler::global().snapshot(false);
  const io::JsonValue doc = io::parse_json(to_json(snap));

  EXPECT_TRUE(doc.bool_or("enabled", false));
  EXPECT_FALSE(doc.bool_or("windowed", true));
  EXPECT_GE(doc.number_or("wall_ms", -1.0), 0.0);
  EXPECT_GE(doc.number_or("total_count", 0.0), 2.0);
  ASSERT_TRUE(doc.at("kernels").is_array());
  ASSERT_TRUE(doc.at("roots").is_array());

  bool found_root = false;
  for (const io::JsonValue& root : doc.at("roots").as_array()) {
    if (root.string_or("name", "") != "prof_test_json_root") continue;
    found_root = true;
    EXPECT_EQ(root.number_or("count", 0.0), 1.0);
    EXPECT_GE(root.number_or("total_ms", 0.0), root.number_or("self_ms", 0.0));
    EXPECT_GE(root.number_or("max_ms", 0.0), root.number_or("min_ms", 1e300));
    ASSERT_TRUE(root.at("children").is_array());
    ASSERT_EQ(root.at("children").as_array().size(), 1u);
    EXPECT_EQ(root.at("children").as_array()[0].string_or("name", ""),
              "prof_test_json_leaf");
  }
  EXPECT_TRUE(found_root);
  teardown();
}

TEST(Prof, OverheadModelIsCalibratedAndSmall) {
  fresh_window();
  EXPECT_GT(Profiler::global().frame_cost_ns(), 0.0);
  // A realistic per-frame cost: more than a clock read, less than 100 µs
  // even under sanitizers.
  EXPECT_LT(Profiler::global().frame_cost_ns(), 100'000.0);

  spin_ns(1'000'000);  // give the denominator some enabled wall time
  for (int k = 0; k < 256; ++k) {
    TFC_SPAN("prof_test_overhead");
  }
  const double ratio = Profiler::global().overhead_ratio();
  EXPECT_GE(ratio, 0.0);
  EXPECT_LT(ratio, 0.9);  // a frames-only loop is the worst case

  Profiler::global().disable();
  EXPECT_EQ(Profiler::global().overhead_ratio(), 0.0);
  teardown();
}

TEST(Prof, SpanOrderingKeepsTraceAndProfilerConsistent) {
  // TFC_SPAN must feed both layers when a request trace is active and the
  // profiler is on: same nesting, same names.
  fresh_window();
  RequestTrace trace;
  {
    ScopedRequestContext ctx("prof-test-trace", &trace);
    TFC_SPAN("prof_test_both_outer");
    { TFC_SPAN("prof_test_both_inner"); }
  }
  const auto snap = Profiler::global().snapshot(true);
  const ProfileNode* outer = find(snap.roots, "prof_test_both_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_NE(find(outer->children, "prof_test_both_inner"), nullptr);

  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[0].name, "prof_test_both_outer");
  EXPECT_EQ(trace.spans()[1].name, "prof_test_both_inner");
  teardown();
}

}  // namespace
}  // namespace tfc::obs::prof
