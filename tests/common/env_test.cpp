#include "common/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace ats {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("ATS_TEST_KNOB"); }

  static void set(const char* v) { setenv("ATS_TEST_KNOB", v, 1); }
};

TEST_F(EnvTest, FlagUnsetIsFalse) {
  unsetenv("ATS_TEST_KNOB");
  EXPECT_FALSE(envFlag("ATS_TEST_KNOB"));
}

TEST_F(EnvTest, FlagRecognizesOffSpellings) {
  for (const char* off : {"", "0", "false", "off", "no"}) {
    set(off);
    EXPECT_FALSE(envFlag("ATS_TEST_KNOB")) << "value: '" << off << "'";
  }
  for (const char* on : {"1", "true", "on", "yes", "anything"}) {
    set(on);
    EXPECT_TRUE(envFlag("ATS_TEST_KNOB")) << "value: '" << on << "'";
  }
}

TEST_F(EnvTest, SizeParsesDecimalAndFallsBackOnGarbage) {
  unsetenv("ATS_TEST_KNOB");
  EXPECT_EQ(envSize("ATS_TEST_KNOB", 7), 7u);
  set("48");
  EXPECT_EQ(envSize("ATS_TEST_KNOB", 7), 48u);
  set("0");
  EXPECT_EQ(envSize("ATS_TEST_KNOB", 7), 0u);
  set("12abc");
  EXPECT_EQ(envSize("ATS_TEST_KNOB", 7), 7u);
  set("notanumber");
  EXPECT_EQ(envSize("ATS_TEST_KNOB", 7), 7u);
  // strtoull would happily wrap these to huge values; the contract says
  // fallback.
  set("-1");
  EXPECT_EQ(envSize("ATS_TEST_KNOB", 7), 7u);
  set("+4");
  EXPECT_EQ(envSize("ATS_TEST_KNOB", 7), 7u);
  set("99999999999999999999999999");  // out of range
  EXPECT_EQ(envSize("ATS_TEST_KNOB", 7), 7u);
}

class EnvThreadsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* saved = std::getenv("ATS_THREADS");
    hadValue_ = saved != nullptr;
    if (hadValue_) saved_ = saved;
  }
  void TearDown() override {
    if (hadValue_) {
      setenv("ATS_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("ATS_THREADS");
    }
  }

 private:
  bool hadValue_ = false;
  std::string saved_;
};

TEST_F(EnvThreadsTest, UnsetZeroAndGarbageMeanTheHarnessDefault) {
  unsetenv("ATS_THREADS");
  EXPECT_EQ(envThreads(4), 4u);
  for (const char* v : {"", "0", "two", "-3"}) {
    setenv("ATS_THREADS", v, 1);
    EXPECT_EQ(envThreads(4), 4u) << "value: '" << v << "'";
  }
}

TEST_F(EnvThreadsTest, AcceptsCountsUpToTheLimit) {
  setenv("ATS_THREADS", "2", 1);
  EXPECT_EQ(envThreads(4), 2u);
  setenv("ATS_THREADS", "1024", 1);
  EXPECT_EQ(envThreads(4), kMaxEnvThreads);
}

TEST_F(EnvThreadsTest, RejectsCountsAboveTheLimitNamingIt) {
  setenv("ATS_THREADS", "40000", 1);
  try {
    envThreads(4);
    FAIL() << "ATS_THREADS=40000 was accepted";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("1024"), std::string::npos)
        << e.what();
  }
  setenv("ATS_THREADS", "1025", 1);
  EXPECT_THROW(envThreads(4), std::out_of_range);
}

TEST_F(EnvTest, StringFallsBackWhenUnset) {
  unsetenv("ATS_TEST_KNOB");
  EXPECT_EQ(envString("ATS_TEST_KNOB", "dflt"), "dflt");
  set("trace_dir");
  EXPECT_EQ(envString("ATS_TEST_KNOB", "dflt"), "trace_dir");
}

}  // namespace
}  // namespace ats
