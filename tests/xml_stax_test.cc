#include "src/xml/stax.h"

#include <gtest/gtest.h>

#include <vector>

namespace smoqe::xml {
namespace {

struct Ev {
  StaxEvent kind;
  std::string payload;  // name or text
};

std::vector<Ev> Drain(StaxReader* r) {
  std::vector<Ev> out;
  while (true) {
    auto e = r->Next();
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    if (!e.ok()) return out;
    Ev ev{*e, ""};
    if (*e == StaxEvent::kStartElement || *e == StaxEvent::kEndElement) {
      ev.payload = r->name();
    } else if (*e == StaxEvent::kCharacters) {
      ev.payload = r->text();
    }
    out.push_back(std::move(ev));
    if (*e == StaxEvent::kEndDocument) return out;
  }
}

TEST(StaxTest, EventSequenceForSimpleDocument) {
  StaxReader r("<a><b>hi</b><c/></a>");
  auto evs = Drain(&r);
  ASSERT_EQ(evs.size(), 9u);
  EXPECT_EQ(evs[0].kind, StaxEvent::kStartDocument);
  EXPECT_EQ(evs[1].kind, StaxEvent::kStartElement);
  EXPECT_EQ(evs[1].payload, "a");
  EXPECT_EQ(evs[2].kind, StaxEvent::kStartElement);
  EXPECT_EQ(evs[2].payload, "b");
  EXPECT_EQ(evs[3].kind, StaxEvent::kCharacters);
  EXPECT_EQ(evs[3].payload, "hi");
  EXPECT_EQ(evs[4].kind, StaxEvent::kEndElement);
  EXPECT_EQ(evs[4].payload, "b");
  EXPECT_EQ(evs[5].kind, StaxEvent::kStartElement);
  EXPECT_EQ(evs[5].payload, "c");
  EXPECT_EQ(evs[6].kind, StaxEvent::kEndElement);
  EXPECT_EQ(evs[6].payload, "c");
  EXPECT_EQ(evs[7].kind, StaxEvent::kEndElement);
  EXPECT_EQ(evs[7].payload, "a");
  EXPECT_EQ(evs[8].kind, StaxEvent::kEndDocument);
}

TEST(StaxTest, FullEventCount) {
  StaxReader r("<a><b/></a>");
  auto evs = Drain(&r);
  // StartDoc, a, b, /b, /a, EndDoc
  ASSERT_EQ(evs.size(), 6u);
  EXPECT_EQ(evs.back().kind, StaxEvent::kEndDocument);
}

TEST(StaxTest, SelfClosingEmitsStartAndEnd) {
  StaxReader r("<a/>");
  auto evs = Drain(&r);
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs[1].kind, StaxEvent::kStartElement);
  EXPECT_EQ(evs[2].kind, StaxEvent::kEndElement);
  EXPECT_EQ(evs[2].payload, "a");
}

TEST(StaxTest, AttributesDecoded) {
  StaxReader r("<a k='1' m=\"x &lt; y\"/>");
  ASSERT_TRUE(r.Next().ok());   // StartDocument
  auto e = r.Next();
  ASSERT_TRUE(e.ok());
  ASSERT_EQ(*e, StaxEvent::kStartElement);
  ASSERT_EQ(r.attrs().size(), 2u);
  EXPECT_EQ(r.attrs()[0].name, "k");
  EXPECT_EQ(r.attrs()[0].value, "1");
  EXPECT_EQ(r.attrs()[1].name, "m");
  EXPECT_EQ(r.attrs()[1].value, "x < y");
}

TEST(StaxTest, DepthTracksNesting) {
  StaxReader r("<a><b><c/></b></a>");
  ASSERT_TRUE(r.Next().ok());  // StartDocument
  ASSERT_TRUE(r.Next().ok());  // <a>
  EXPECT_EQ(r.depth(), 1);
  ASSERT_TRUE(r.Next().ok());  // <b>
  EXPECT_EQ(r.depth(), 2);
  ASSERT_TRUE(r.Next().ok());  // <c>
  EXPECT_EQ(r.depth(), 3);
  ASSERT_TRUE(r.Next().ok());  // </c>
  EXPECT_EQ(r.depth(), 2);
}

TEST(StaxTest, EndDocumentIsSticky) {
  StaxReader r("<a/>");
  (void)Drain(&r);
  auto e = r.Next();
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*e, StaxEvent::kEndDocument);
}

TEST(StaxTest, DoctypeCaptured) {
  StaxReader r("<!DOCTYPE root SYSTEM \"x.dtd\" [<!ELEMENT root EMPTY>]><root/>");
  ASSERT_TRUE(r.Next().ok());
  auto e = r.Next();
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(*e, StaxEvent::kStartElement);
  EXPECT_EQ(r.doctype_name(), "root");
  EXPECT_EQ(r.doctype_internal_subset(), "<!ELEMENT root EMPTY>");
}

TEST(StaxTest, WhitespaceTextSkippedByDefaultKeptOnRequest) {
  {
    StaxReader r("<a>  <b/>  </a>");
    auto evs = Drain(&r);
    ASSERT_EQ(evs.size(), 6u);  // no kCharacters events
  }
  {
    StaxOptions opts;
    opts.skip_whitespace_text = false;
    StaxReader r("<a>  <b/>  </a>", opts);
    auto evs = Drain(&r);
    ASSERT_EQ(evs.size(), 8u);
    EXPECT_EQ(evs[2].kind, StaxEvent::kCharacters);
  }
}

TEST(StaxTest, CdataAndTextCoalesce) {
  StaxReader r("<a>pre<![CDATA[ <raw> ]]>post</a>");
  ASSERT_TRUE(r.Next().ok());
  ASSERT_TRUE(r.Next().ok());
  auto e = r.Next();
  ASSERT_TRUE(e.ok());
  ASSERT_EQ(*e, StaxEvent::kCharacters);
  EXPECT_EQ(r.text(), "pre <raw> post");
}

TEST(StaxTest, ErrorsSurfaceOnce) {
  StaxReader r("<a><b></c></a>");
  ASSERT_TRUE(r.Next().ok());
  ASSERT_TRUE(r.Next().ok());
  ASSERT_TRUE(r.Next().ok());
  auto e = r.Next();
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kParseError);
}

// --- malformed-input hardening (S1) ---

// Drives the reader to completion or error; returns the first error.
Status DrainToError(std::string_view doc) {
  StaxReader r(doc);
  while (true) {
    auto e = r.Next();
    if (!e.ok()) return e.status();
    if (*e == StaxEvent::kEndDocument) return Status::OK();
  }
}

TEST(StaxTest, MalformedInputIsCleanParseError) {
  const char* corpus[] = {
      "<a><![CDATA[never closed",
      "<a><!-- never closed",
      "<a><?pi never closed",
      "<?xml version='1.0'",
      "<!DOCTYPE a [<!ELEMENT a EMPTY>",
      "<a b='unterminated",
      "<a></a",
      "<a><b x/></a>",
      "<a>&#xFFFFFFFFFFFF;</a>",
      "<a>&#xD800;</a>",
      "<a>&#0;</a>",
  };
  for (const char* doc : corpus) {
    Status st = DrainToError(doc);
    ASSERT_FALSE(st.ok()) << "accepted malformed input: " << doc;
    EXPECT_EQ(st.code(), StatusCode::kParseError)
        << doc << " -> " << st.ToString();
  }
}

TEST(StaxTest, TruncationSweepFailsCleanly) {
  const std::string fixture =
      "<!DOCTYPE a [<!ELEMENT a (b)*>]><a x='1'><b><![CDATA[z]]></b></a>";
  for (size_t len = 0; len < fixture.size(); ++len) {
    Status st = DrainToError(std::string_view(fixture).substr(0, len));
    ASSERT_FALSE(st.ok()) << "prefix of length " << len << " accepted";
    EXPECT_EQ(st.code(), StatusCode::kParseError) << "len " << len;
  }
  EXPECT_TRUE(DrainToError(fixture).ok());
}

TEST(StaxTest, RejectsNulBytesInContent) {
  std::string text_nul = "<a>xy</a>";
  text_nul[4] = '\0';
  EXPECT_EQ(DrainToError(text_nul).code(), StatusCode::kParseError);
  std::string attr_nul = "<a v='x'/>";
  attr_nul[6] = '\0';
  EXPECT_EQ(DrainToError(attr_nul).code(), StatusCode::kParseError);
}

// Error messages carry the exact 1-based position of the scan point
// (columns count bytes; "\r" and "\t" are one column each, a line break
// is "\n"). The expected strings are the reader's messages as first
// recorded; a position computed lazily from the byte offset must
// reproduce them byte for byte.
TEST(StaxTest, ErrorMessagesCarryExactPositions) {
  struct Case {
    std::string doc;
    const char* message;
  };
  const Case cases[] = {
      {"<a>\n  <b>\n  </c>\n</a>",
       "mismatched end tag: expected </b>, found </c> at line 3, column 7"},
      {"<a>\n  <b>text</b x>\n</a>", "malformed end tag at line 2, column 14"},
      {"<a>\n</a>\n</a>", "unmatched end tag </a> at line 3, column 5"},
      {"<a>\n  x &bogus; y\n</a>",
       "unknown entity '&bogus;' at line 2, column 6"},
      {"<a>\n  x &#xZZ; y\n</a>",
       "malformed character reference at line 2, column 6"},
      {"<a>\n  x &#; y\n</a>", "empty character reference at line 2, column 6"},
      {"<a>\n  x &amp y z w v u t\n</a>",
       "unterminated entity reference at line 2, column 6"},
      {"<a>\n  x &#xD800; y\n</a>",
       "character reference to an invalid XML character at line 2, column 6"},
      {"<a>\n  <b v='1 &nope; 2'/>\n</a>",
       "unknown entity '&nope;' at line 2, column 12"},
      {std::string("<a>\n  ab\0cd\n</a>", 17),
       "NUL byte in character data at line 2, column 5"},
      {std::string("<a>\n  <b v='x\0y'/>\n</a>", 22),
       "NUL byte in attribute value at line 2, column 10"},
      {"<a>\n  <![CDATA[ abc\n  def",
       "unterminated CDATA at line 2, column 12"},
      {"<a>\n  <!-- abc\n  def", "unterminated comment at line 2, column 7"},
      {"<a>\r\n\tpre &lt; <![CDATA[x]]><!--c-->\r\n"
       "\t<b k='&amp;' k='2'/>\n</a>",
       "duplicate attribute 'k' at line 3, column 20"},
      {"<a>\n  <b v=\"\xc3\xa9\xc3\xa9 <\"/>\n</a>",
       "'<' not allowed in attribute value at line 2, column 14"},
      {"<a>\n  <b\n   v='1'\n   w>\n</a>",
       "expected '=' in attribute at line 4, column 5"},
      {"<a>\n  <b>\n    <c>",
       "unexpected end of input: <c> is not closed at line 3, column 8"},
      {"<a/>\n<b/>", "multiple root elements at line 2, column 2"},
      {"<a/>\n  trailing",
       "content outside the root element at line 2, column 3"},
      {"<?xml version='1.0'?>\n<!DOCTYPE a [\n<!ELEMENT a EMPTY>\n",
       "unterminated DOCTYPE internal subset at line 4, column 1"},
      {"<a>\n  <1b/>\n</a>", "expected a name at line 2, column 4"},
      {"<a>\n  <b v='unterminated\n</a>",
       "'<' not allowed in attribute value at line 3, column 1"},
      {"<a>\n  <b v=x/>\n</a>",
       "expected quoted attribute value at line 2, column 8"},
      {"<a>\n  <?pi never",
       "unterminated processing instruction at line 2, column 5"},
      {"\n\n   ", "document has no root element at line 3, column 4"},
      {"<a>\n  <b/ >\n</a>", "malformed self-closing tag at line 2, column 6"},
  };
  for (const Case& c : cases) {
    Status st = DrainToError(c.doc);
    ASSERT_FALSE(st.ok()) << "accepted: " << c.doc;
    EXPECT_EQ(st.code(), StatusCode::kParseError) << c.doc;
    EXPECT_EQ(st.message(), c.message) << c.doc;
  }
}

TEST(StaxTest, SurrogateAndControlRefsRejectedInAttrValues) {
  EXPECT_EQ(DrainToError("<a v='&#xDC00;'/>").code(),
            StatusCode::kParseError);
  EXPECT_EQ(DrainToError("<a v='&#2;'/>").code(), StatusCode::kParseError);
  // Tab/LF/CR refs remain legal in attribute values.
  EXPECT_TRUE(DrainToError("<a v='&#9;&#xA;&#xD;'/>").ok());
}

}  // namespace
}  // namespace smoqe::xml
