// tools/flags.h: both value forms parse, and RejectUnknown() stops a run
// whose command line names a flag the program never reads.
#include "tools/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace speedkit::tools {
namespace {

// Owns the argv strings so Flags can be built from a list literal.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    ptrs_.push_back(const_cast<char*>("prog"));
    for (std::string& a : args_) ptrs_.push_back(a.data());
    ptrs_.push_back(nullptr);
  }
  int argc() const { return static_cast<int>(ptrs_.size()) - 1; }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

TEST(FlagsTest, EqualsAndSpaceFormsBothParse) {
  Argv args({"--seeds=3", "--threads", "4", "--json", "--name", "x"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.GetInt("seeds", 1), 3);
  EXPECT_EQ(flags.GetInt("threads", 1), 4);
  EXPECT_EQ(flags.GetString("json", ""), "true");
  EXPECT_EQ(flags.GetString("name", ""), "x");
  EXPECT_EQ(flags.GetInt("shards", 7), 7);
  flags.RejectUnknown();  // every passed flag was read: returns
}

TEST(FlagsTest, KnownFlagsAndPositionalsAreAccepted) {
  Argv args({"trace.csv", "--top", "3", "--width=40"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.GetInt("top", 5), 3);
  EXPECT_TRUE(flags.Has("width"));
  flags.RejectUnknown();
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "trace.csv");
}

TEST(FlagsTest, UnknownFlagIsRejectedByName) {
  Argv args({"--seeds=2", "--seedz=2", "--bogus", "1"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.GetInt("seeds", 8), 2);
  EXPECT_EXIT(flags.RejectUnknown(), ::testing::ExitedWithCode(2),
              "unknown flag\\(s\\): --bogus --seedz");
}

TEST(FlagsTest, UnreadHelpIsUnknown) {
  Argv args({"--help"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.GetInt("clients", 1000), 1000);
  EXPECT_EXIT(flags.RejectUnknown(), ::testing::ExitedWithCode(2),
              "--help");
}

TEST(FlagsTest, ReadHelpIsAccepted) {
  Argv args({"--help"});
  Flags flags(args.argc(), args.argv());
  EXPECT_TRUE(flags.GetBool("help", false));
  flags.RejectUnknown();
}

}  // namespace
}  // namespace speedkit::tools
