#include "coherence/staleness.h"

#include <gtest/gtest.h>

namespace speedkit::coherence {
namespace {

SimTime At(double seconds) {
  return SimTime::Origin() + Duration::Seconds(seconds);
}

TEST(StalenessTrackerTest, CurrentReadIsNotStale) {
  StalenessTracker tracker;
  tracker.RecordWrite("k", 1, At(0));
  EXPECT_EQ(tracker.RecordRead("k", 1, At(10)), Duration::Zero());
  EXPECT_EQ(tracker.report().stale_reads, 0u);
  EXPECT_EQ(tracker.report().reads, 1u);
}

TEST(StalenessTrackerTest, UnknownKeyIsNotStale) {
  StalenessTracker tracker;
  EXPECT_EQ(tracker.RecordRead("never-written", 5, At(10)), Duration::Zero());
}

TEST(StalenessTrackerTest, StaleReadMeasuredFromOverwriteTime) {
  StalenessTracker tracker;
  tracker.RecordWrite("k", 1, At(0));
  tracker.RecordWrite("k", 2, At(100));
  // Reading v1 at t=130: v1 died at t=100 -> staleness 30s.
  EXPECT_EQ(tracker.RecordRead("k", 1, At(130)), Duration::Seconds(30));
  EXPECT_EQ(tracker.report().stale_reads, 1u);
  EXPECT_EQ(tracker.report().max_staleness, Duration::Seconds(30));
}

TEST(StalenessTrackerTest, MultipleVersionsMeasureAgainstNextWrite) {
  StalenessTracker tracker;
  tracker.RecordWrite("k", 1, At(0));
  tracker.RecordWrite("k", 2, At(10));
  tracker.RecordWrite("k", 3, At(20));
  // v1 died at t=10, not t=20.
  EXPECT_EQ(tracker.RecordRead("k", 1, At(25)), Duration::Seconds(15));
  // v2 died at t=20.
  EXPECT_EQ(tracker.RecordRead("k", 2, At(25)), Duration::Seconds(5));
}

TEST(StalenessTrackerTest, FutureVersionTreatedAsCurrent) {
  StalenessTracker tracker;
  tracker.RecordWrite("k", 1, At(0));
  EXPECT_EQ(tracker.RecordRead("k", 7, At(5)), Duration::Zero());
}

TEST(StalenessTrackerTest, OutOfOrderWritesIgnored) {
  StalenessTracker tracker;
  tracker.RecordWrite("k", 2, At(10));
  tracker.RecordWrite("k", 1, At(50));  // stale write event: dropped
  EXPECT_EQ(tracker.RecordRead("k", 2, At(60)), Duration::Zero());
}

TEST(StalenessTrackerTest, RingOverflowClampsAndCounts) {
  StalenessTracker tracker(/*ring_capacity=*/4);
  for (uint64_t v = 1; v <= 10; ++v) {
    tracker.RecordWrite("k", v, At(static_cast<double>(v)));
  }
  // v1 rotated out of the ring: staleness is clamped, and flagged.
  tracker.RecordRead("k", 1, At(20));
  EXPECT_EQ(tracker.report().stale_reads, 1u);
  EXPECT_EQ(tracker.report().clamped, 1u);
  // Clamped staleness is still positive (bounded below).
  EXPECT_GT(tracker.report().max_staleness, Duration::Zero());
}

TEST(StalenessTrackerTest, HistogramCollectsStaleReadsOnly) {
  StalenessTracker tracker;
  tracker.RecordWrite("k", 1, At(0));
  tracker.RecordWrite("k", 2, At(10));
  tracker.RecordRead("k", 2, At(20));  // current
  tracker.RecordRead("k", 1, At(20));  // stale by 10s
  EXPECT_EQ(tracker.staleness_us().count(), 1u);
  EXPECT_NEAR(static_cast<double>(tracker.staleness_us().max()), 1e7, 1e5);
}

TEST(StalenessTrackerTest, StaleFraction) {
  StalenessTracker tracker;
  tracker.RecordWrite("k", 1, At(0));
  tracker.RecordWrite("k", 2, At(1));
  tracker.RecordRead("k", 2, At(2));
  tracker.RecordRead("k", 1, At(2));
  EXPECT_DOUBLE_EQ(tracker.report().StaleFraction(), 0.5);
}

TEST(StalenessTrackerTest, DeltaBoundCountsViolations) {
  StalenessTracker tracker;
  tracker.SetDeltaBound(Duration::Seconds(20));
  tracker.RecordWrite("k", 1, At(0));
  tracker.RecordWrite("k", 2, At(100));
  // 10s stale: within the bound.
  tracker.RecordRead("k", 1, At(110));
  EXPECT_EQ(tracker.report().stale_reads, 1u);
  EXPECT_EQ(tracker.report().delta_violations, 0u);
  // 30s stale: over the bound.
  tracker.RecordRead("k", 1, At(130));
  EXPECT_EQ(tracker.report().stale_reads, 2u);
  EXPECT_EQ(tracker.report().delta_violations, 1u);
  EXPECT_DOUBLE_EQ(tracker.report().ViolationFraction(), 0.5);
}

TEST(StalenessTrackerTest, ExcusedStaleReadIsNeverAViolation) {
  StalenessTracker tracker;
  tracker.SetDeltaBound(Duration::Seconds(20));
  tracker.RecordWrite("k", 1, At(0));
  tracker.RecordWrite("k", 2, At(100));
  // An offline serve during an outage: 200s stale, but excused.
  tracker.RecordRead("k", 1, At(300), /*excused=*/true);
  EXPECT_EQ(tracker.report().stale_reads, 1u);
  EXPECT_EQ(tracker.report().excused_stale_reads, 1u);
  EXPECT_EQ(tracker.report().delta_violations, 0u);
  // Staleness itself is still measured and reported.
  EXPECT_EQ(tracker.report().max_staleness, Duration::Seconds(200));
}

TEST(StalenessTrackerTest, UnarmedBoundNeverViolates) {
  StalenessTracker tracker;  // delta_bound stays Duration::Max()
  tracker.RecordWrite("k", 1, At(0));
  tracker.RecordWrite("k", 2, At(1));
  tracker.RecordRead("k", 1, At(100000));
  EXPECT_EQ(tracker.report().stale_reads, 1u);
  EXPECT_EQ(tracker.report().delta_violations, 0u);
}

TEST(StalenessTrackerTest, ReportMergeSumsViolationAccounting) {
  StalenessTracker a;
  a.SetDeltaBound(Duration::Seconds(1));
  a.RecordWrite("k", 1, At(0));
  a.RecordWrite("k", 2, At(1));
  a.RecordRead("k", 1, At(10));                    // violation
  a.RecordRead("k", 1, At(20), /*excused=*/true);  // excused

  StalenessReport merged;
  merged.Merge(a.report());
  merged.Merge(a.report());
  EXPECT_EQ(merged.reads, 4u);
  EXPECT_EQ(merged.delta_violations, 2u);
  EXPECT_EQ(merged.excused_stale_reads, 2u);
  EXPECT_EQ(merged.max_staleness, a.report().max_staleness);
}

}  // namespace
}  // namespace speedkit::coherence
