#include "trace/mb_trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "support/check.h"

namespace mb::trace {
namespace {

Trace sample_trace() {
  Trace t;
  Record r;
  r.rank = 0;
  r.t0 = 0.1;
  r.t1 = 0.30000000000000004;  // survives only a bit-exact format
  r.kind = EventKind::kCompute;
  r.label = "convolution";
  t.add(r);
  r.rank = 2;
  r.t0 = 0.3;
  r.t1 = 0.5;
  r.kind = EventKind::kCollective;
  r.label = "alltoallv";
  r.bytes = 1 << 20;
  t.add(r);
  return t;
}

TEST(MbTrace, RoundTripIsBitExact) {
  Trace t = sample_trace();
  MbTraceMeta meta;
  meta.tool_version = "1.0.0";
  meta.seed = 42;
  meta.total_ranks = 4;
  meta.sampled_ranks = {0, 2};
  meta.dropped = 7;

  std::ostringstream os(std::ios::binary);
  write_mb_trace(os, t, meta);
  std::istringstream is(os.str(), std::ios::binary);
  const MbTraceFile file = read_mb_trace(is);

  EXPECT_EQ(file.meta.tool_version, "1.0.0");
  EXPECT_EQ(file.meta.seed, 42u);
  EXPECT_EQ(file.meta.total_ranks, 4u);
  EXPECT_EQ(file.meta.sampled_ranks, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(file.meta.dropped, 7u);

  ASSERT_EQ(file.trace.size(), 2u);
  const Record& a = file.trace.records()[0];
  EXPECT_EQ(a.rank, 0u);
  EXPECT_EQ(a.t0, 0.1);  // exact: raw IEEE-754 bits, no text rounding
  EXPECT_EQ(a.t1, 0.30000000000000004);
  EXPECT_EQ(a.label, "convolution");
  const Record& b = file.trace.records()[1];
  EXPECT_EQ(b.kind, EventKind::kCollective);
  EXPECT_EQ(b.bytes, static_cast<std::uint64_t>(1 << 20));

  // Provenance flows from the header into the in-memory trace.
  ASSERT_TRUE(file.trace.has_provenance());
  EXPECT_EQ(file.trace.tool_version(), "1.0.0");
  EXPECT_EQ(file.trace.seed(), 42u);
}

TEST(MbTrace, WriteIsDeterministic) {
  Trace t = sample_trace();
  MbTraceMeta meta;
  meta.tool_version = "1.0.0";
  meta.total_ranks = 4;
  std::ostringstream a(std::ios::binary);
  std::ostringstream b(std::ios::binary);
  write_mb_trace(a, t, meta);
  write_mb_trace(b, t, meta);
  EXPECT_EQ(a.str(), b.str());
}

TEST(MbTrace, IsMbTraceSniffsAndRestoresStream) {
  Trace t = sample_trace();
  MbTraceMeta meta;
  meta.total_ranks = 4;
  std::ostringstream os(std::ios::binary);
  write_mb_trace(os, t, meta);

  std::istringstream binary(os.str(), std::ios::binary);
  EXPECT_TRUE(is_mb_trace(binary));
  // The sniff must not consume the header: a full read still works.
  EXPECT_EQ(read_mb_trace(binary).trace.size(), 2u);

  std::istringstream text("0:compute:x:0:1:0\n");
  EXPECT_FALSE(is_mb_trace(text));
  std::string line;
  std::getline(text, line);
  EXPECT_EQ(line, "0:compute:x:0:1:0");  // stream position restored

  std::istringstream tiny("MB");
  EXPECT_FALSE(is_mb_trace(tiny));
}

TEST(MbTrace, RejectsCorruptInput) {
  Trace t = sample_trace();
  MbTraceMeta meta;
  meta.total_ranks = 4;
  std::ostringstream os(std::ios::binary);
  write_mb_trace(os, t, meta);
  const std::string good = os.str();

  {  // bad magic
    std::string bad = good;
    bad[0] = 'X';
    std::istringstream is(bad, std::ios::binary);
    EXPECT_THROW(read_mb_trace(is), support::Error);
  }
  {  // unsupported version
    std::string bad = good;
    bad[4] = static_cast<char>(0x7F);
    std::istringstream is(bad, std::ios::binary);
    EXPECT_THROW(read_mb_trace(is), support::Error);
  }
  {  // truncated mid-record
    std::istringstream is(good.substr(0, good.size() - 5),
                          std::ios::binary);
    EXPECT_THROW(read_mb_trace(is), support::Error);
  }
  {  // empty
    std::istringstream is(std::string{}, std::ios::binary);
    EXPECT_THROW(read_mb_trace(is), support::Error);
  }
  constexpr std::size_t kRecord = 33;
  const std::size_t last = good.size() - kRecord;
  {  // event kind past the last EventKind
    std::string bad = good;
    bad[last + 4] = static_cast<char>(0x40);
    std::istringstream is(bad, std::ios::binary);
    EXPECT_THROW(read_mb_trace(is), support::Error);
  }
  {  // label id past the label table
    std::string bad = good;
    bad[last + 5] = static_cast<char>(0x09);
    std::istringstream is(bad, std::ios::binary);
    EXPECT_THROW(read_mb_trace(is), support::Error);
  }
  {  // a huge declared record count over a short body: the reader must
     // fail on the missing bytes, not allocate for the claimed count
    std::string bad = good;
    const std::size_t count_at = good.size() - 2 * kRecord - 8;
    for (std::size_t i = 0; i < 8; ++i)
      bad[count_at + i] = static_cast<char>(i == 7 ? 0x10 : 0xFF);
    std::istringstream is(bad, std::ios::binary);
    EXPECT_THROW(read_mb_trace(is), support::Error);
  }
}

TEST(MbTrace, RecordLayoutIsFixedLittleEndian) {
  Trace t;
  Record r;
  r.rank = 0x01020304;
  r.kind = EventKind::kCollective;
  r.label = "x";
  r.bytes = 0x1112131415161718ULL;
  r.t0 = 0.0;
  r.t1 = 1.0;  // IEEE-754 bits 0x3FF0000000000000
  t.add(r);
  std::ostringstream os(std::ios::binary);
  write_mb_trace(os, t, MbTraceMeta{});
  const std::string bytes = os.str();
  ASSERT_GE(bytes.size(), 33u);
  const std::string rec = bytes.substr(bytes.size() - 33);
  const unsigned char want[33] = {
      0x04, 0x03, 0x02, 0x01,                          // rank
      static_cast<unsigned char>(EventKind::kCollective),
      0x00, 0x00, 0x00, 0x00,                          // label id
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // bytes
      0, 0, 0, 0, 0, 0, 0, 0,                          // t0 bits
      0, 0, 0, 0, 0, 0, 0xF0, 0x3F};                   // t1 bits
  EXPECT_EQ(rec, std::string(reinterpret_cast<const char*>(want), 33));
  std::istringstream is(bytes, std::ios::binary);
  const MbTraceFile back = read_mb_trace(is);
  ASSERT_EQ(back.trace.size(), 1u);
  EXPECT_EQ(back.trace.records()[0].rank, 0x01020304u);
  EXPECT_EQ(back.trace.records()[0].bytes, 0x1112131415161718ULL);
  EXPECT_EQ(back.trace.records()[0].t1, 1.0);
}

}  // namespace
}  // namespace mb::trace
