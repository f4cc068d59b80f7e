// ResolveNetPathOptions precedence: a set SOLROS_NET_* variable overrides
// the programmatic field, and SOLROS_NET_BATCH=1 turns on all four
// mechanisms.
#include <gtest/gtest.h>

#include <cstdlib>

#include "src/net/net_options.h"

namespace solros {
namespace {

class NetOptionsEnvTest : public ::testing::Test {
 protected:
  void SetUp() override { ClearEnv(); }
  void TearDown() override { ClearEnv(); }

 private:
  static void ClearEnv() {
    for (const char* name :
         {"SOLROS_NET_BATCH", "SOLROS_NET_COALESCE", "SOLROS_NET_VECTORED",
          "SOLROS_NET_ADAPTIVE_COPY", "SOLROS_NET_DRR",
          "SOLROS_NET_COALESCE_BYTES", "SOLROS_NET_PLUG_WINDOW_NS",
          "SOLROS_NET_PUSH_EVENTS"}) {
      unsetenv(name);
    }
  }
};

TEST_F(NetOptionsEnvTest, UnsetEnvironmentKeepsProgrammaticFields) {
  NetPathOptions base;
  base.coalescing = true;
  base.max_events_per_push = 7;
  const NetPathOptions resolved = ResolveNetPathOptions(base);
  EXPECT_TRUE(resolved.coalescing);
  EXPECT_FALSE(resolved.vectored_push);
  EXPECT_EQ(resolved.max_events_per_push, 7u);
}

TEST_F(NetOptionsEnvTest, EnvironmentOverridesProgrammaticFields) {
  NetPathOptions base;
  base.coalescing = true;
  base.max_events_per_push = 7;
  setenv("SOLROS_NET_COALESCE", "0", 1);
  setenv("SOLROS_NET_PUSH_EVENTS", "12", 1);
  const NetPathOptions resolved = ResolveNetPathOptions(base);
  EXPECT_FALSE(resolved.coalescing);
  EXPECT_EQ(resolved.max_events_per_push, 12u);
}

TEST_F(NetOptionsEnvTest, BatchTurnsOnAllFourMechanisms) {
  setenv("SOLROS_NET_BATCH", "1", 1);
  const NetPathOptions resolved = ResolveNetPathOptions(NetPathOptions());
  EXPECT_TRUE(resolved.coalescing);
  EXPECT_TRUE(resolved.vectored_push);
  EXPECT_TRUE(resolved.adaptive_copy);
  EXPECT_TRUE(resolved.drr_dispatch);
}

TEST_F(NetOptionsEnvTest, PerMechanismFlagAppliesAfterBatch) {
  setenv("SOLROS_NET_BATCH", "1", 1);
  setenv("SOLROS_NET_DRR", "0", 1);
  const NetPathOptions resolved = ResolveNetPathOptions(NetPathOptions());
  EXPECT_TRUE(resolved.coalescing);
  EXPECT_TRUE(resolved.vectored_push);
  EXPECT_TRUE(resolved.adaptive_copy);
  EXPECT_FALSE(resolved.drr_dispatch);
}

}  // namespace
}  // namespace solros
