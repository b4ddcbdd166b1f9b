// Tests for the text layout format (geom/layout_io).
#include <gtest/gtest.h>

#include <sstream>

#include "geom/layout_io.hpp"
#include "geom/topologies.hpp"

namespace {

using namespace ind::geom;

TEST(LayoutIo, RoundTripPreservesEverything) {
  Layout l(default_tech());
  DriverReceiverGridSpec spec;
  spec.grid.extent_x = um(300);
  spec.grid.extent_y = um(300);
  spec.grid.pitch = um(150);
  add_driver_receiver_grid(l, spec);

  std::ostringstream text;
  write_layout(text, l);
  const Layout rt = layout_from_text(text.str());
  EXPECT_EQ(rt.num_nets(), l.num_nets());
  ASSERT_EQ(rt.segments().size(), l.segments().size());
  ASSERT_EQ(rt.vias().size(), l.vias().size());
  ASSERT_EQ(rt.pads().size(), l.pads().size());
  ASSERT_EQ(rt.drivers().size(), l.drivers().size());
  ASSERT_EQ(rt.receivers().size(), l.receivers().size());
  for (std::size_t i = 0; i < l.segments().size(); ++i) {
    const Segment& a = l.segments()[i];
    const Segment& b = rt.segments()[i];
    EXPECT_NEAR(a.a.x, b.a.x, 1e-12);
    EXPECT_NEAR(a.b.y, b.b.y, 1e-12);
    EXPECT_NEAR(a.width, b.width, 1e-12);
    EXPECT_EQ(a.layer, b.layer);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(l.net(a.net).name, rt.net(b.net).name);
  }
  EXPECT_NEAR(rt.total_wirelength(), l.total_wirelength(), 1e-10);
  // Driver attributes survive.
  EXPECT_EQ(rt.drivers()[0].name, l.drivers()[0].name);
  EXPECT_DOUBLE_EQ(rt.drivers()[0].strength_ohm, l.drivers()[0].strength_ohm);
  EXPECT_EQ(rt.drivers()[0].rising, l.drivers()[0].rising);
  EXPECT_DOUBLE_EQ(rt.receivers()[0].load_cap, l.receivers()[0].load_cap);
}

TEST(LayoutIo, ParsesHandWrittenFile) {
  const std::string text = R"(# demo
tech default
net sig signal
net gnd ground
wire sig 6 0 0 100 0 2
wire gnd 6 0 5 100 5 2
via sig 50 0 5 6 4
pad ground 6 0 5 0.05 5e-10
drv sig 6 0 0 30 5e-11 0 r drv0
rcv sig 6 100 0 2e-14 rcv0
)";
  const Layout l = layout_from_text(text);
  EXPECT_EQ(l.num_nets(), 2u);
  ASSERT_EQ(l.segments().size(), 2u);
  EXPECT_NEAR(l.segments()[0].length(), um(100), 1e-12);
  ASSERT_EQ(l.vias().size(), 1u);
  EXPECT_EQ(l.vias()[0].cuts, 4);
  ASSERT_EQ(l.pads().size(), 1u);
  EXPECT_EQ(l.pads()[0].kind, NetKind::Ground);
  ASSERT_EQ(l.drivers().size(), 1u);
  EXPECT_EQ(l.drivers()[0].name, "drv0");
  EXPECT_TRUE(l.drivers()[0].rising);
  ASSERT_EQ(l.receivers().size(), 1u);
  EXPECT_DOUBLE_EQ(l.receivers()[0].load_cap, 2e-14);
}

TEST(LayoutIo, ReportsLineNumbersOnErrors) {
  try {
    layout_from_text("net sig signal\nwire nope 6 0 0 1 0 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("nope"), std::string::npos);
  }
  EXPECT_THROW(layout_from_text("bogus record\n"), std::invalid_argument);
  EXPECT_THROW(layout_from_text("net a plasma\n"), std::invalid_argument);
  EXPECT_THROW(layout_from_text("net a signal\nwire a 6 0 0\n"),
               std::invalid_argument);
}

TEST(LayoutIo, CommentsAndBlankLinesIgnored) {
  const Layout l = layout_from_text("# hi\n\nnet a signal\n# bye\n");
  EXPECT_EQ(l.num_nets(), 1u);
  EXPECT_TRUE(l.segments().empty());
}

}  // namespace
