#include "src/common/strings.h"

#include <gtest/gtest.h>

namespace smoqe {
namespace {

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto pieces = Split("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(pieces[3], "c");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, "/"), "a/b/c");
  EXPECT_EQ(Join({}, "/"), "");
  EXPECT_EQ(Join({"solo"}, ", "), "solo");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\t\na b\r\n"), "a b");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hospital", "hosp"));
  EXPECT_FALSE(StartsWith("hosp", "hospital"));
  EXPECT_TRUE(EndsWith("patient", "ent"));
  EXPECT_FALSE(EndsWith("ent", "patient"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StringsTest, XmlEscape) {
  EXPECT_EQ(XmlEscape("a<b>&'\"c"), "a&lt;b&gt;&amp;&apos;&quot;c");
  EXPECT_EQ(XmlEscape("plain"), "plain");
  EXPECT_EQ(XmlEscape(""), "");
  // All five entities adjacent, with no unescaped run between them.
  EXPECT_EQ(XmlEscape("&<>\"'"), "&amp;&lt;&gt;&quot;&apos;");
  EXPECT_EQ(XmlEscape("<<x>>"), "&lt;&lt;x&gt;&gt;");
  // AppendXmlEscaped appends: what is already in the buffer stays.
  std::string out = "<a k=\"";
  AppendXmlEscaped("x&y'", &out);
  AppendXmlEscaped("", &out);
  AppendXmlEscaped("\"z", &out);
  EXPECT_EQ(out, "<a k=\"x&amp;y&apos;&quot;z");
}

TEST(StringsTest, JsonEscape) {
  auto escaped = [](std::string_view s) {
    std::string out;
    AppendJsonEscaped(s, &out);
    return out;
  };
  EXPECT_EQ(escaped("plain"), "plain");
  EXPECT_EQ(escaped(""), "");
  EXPECT_EQ(escaped("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escaped("a\\b"), "a\\\\b");
  EXPECT_EQ(escaped("\n\t\r"), "\\n\\t\\r");
  EXPECT_EQ(escaped(std::string_view("a\x01", 2)), "a\\u0001");
  EXPECT_EQ(escaped(std::string_view("\0\x1f", 2)), "\\u0000\\u001f");
  // Bytes from 0x20 up, UTF-8 included, pass through unchanged.
  EXPECT_EQ(escaped("caf\xc3\xa9 ~"), "caf\xc3\xa9 ~");
  // Appends: what is already in the buffer stays.
  std::string out = "{\"k\": \"";
  AppendJsonEscaped("x\"", &out);
  EXPECT_EQ(out, "{\"k\": \"x\\\"");
}

TEST(StringsTest, XmlNameValidation) {
  EXPECT_TRUE(IsValidXmlName("patient"));
  EXPECT_TRUE(IsValidXmlName("_x"));
  EXPECT_TRUE(IsValidXmlName("a-b.c:d"));
  EXPECT_FALSE(IsValidXmlName(""));
  EXPECT_FALSE(IsValidXmlName("1abc"));
  EXPECT_FALSE(IsValidXmlName("-abc"));
  EXPECT_FALSE(IsValidXmlName("a b"));
}

}  // namespace
}  // namespace smoqe
