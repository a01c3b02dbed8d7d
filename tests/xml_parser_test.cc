#include "src/xml/parser.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/guardrail.h"
#include "src/workload/workloads.h"
#include "src/xml/serializer.h"

namespace smoqe::xml {
namespace {

TEST(XmlParserTest, ParsesMinimalDocument) {
  auto r = ParseDocument("<a/>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Document& doc = *r;
  EXPECT_EQ(doc.names()->NameOf(doc.root()->label), "a");
  EXPECT_EQ(doc.num_nodes(), 1);
  EXPECT_EQ(doc.root()->first_child, nullptr);
}

TEST(XmlParserTest, ParsesNestedElementsAndText) {
  auto r = ParseDocument("<a><b>hi</b><c><d/></c></a>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Node* a = r->root();
  ASSERT_NE(a->first_child, nullptr);
  const Node* b = a->first_child;
  EXPECT_EQ(r->names()->NameOf(b->label), "b");
  ASSERT_NE(b->first_child, nullptr);
  EXPECT_TRUE(b->first_child->is_text());
  EXPECT_STREQ(b->first_child->text, "hi");
  const Node* c = b->next_sibling;
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(r->names()->NameOf(c->label), "c");
  EXPECT_EQ(r->names()->NameOf(c->first_child->label), "d");
}

TEST(XmlParserTest, ParsesAttributes) {
  auto r = ParseDocument("<a x=\"1\" y='two &amp; three'/>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Node* a = r->root();
  ASSERT_EQ(a->num_attrs, 2u);
  NameId x = r->names()->Lookup("x");
  NameId y = r->names()->Lookup("y");
  EXPECT_STREQ(a->FindAttr(x), "1");
  EXPECT_STREQ(a->FindAttr(y), "two & three");
  EXPECT_EQ(a->FindAttr(r->names()->Intern("z")), nullptr);
}

TEST(XmlParserTest, DecodesEntitiesInText) {
  auto r = ParseDocument("<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</a>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Document::DirectText(r->root()), "<tag> & \"q\" 'a' AB");
}

TEST(XmlParserTest, CdataIsText) {
  auto r = ParseDocument("<a><![CDATA[<not-a-tag> & raw]]></a>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Document::DirectText(r->root()), "<not-a-tag> & raw");
}

TEST(XmlParserTest, SkipsCommentsPisAndDeclaration) {
  auto r = ParseDocument(
      "<?xml version=\"1.0\"?><!-- c --><?pi data?><a><!-- inner -->x</a>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Document::DirectText(r->root()), "x");
}

TEST(XmlParserTest, WhitespaceOnlyTextDroppedByDefault) {
  auto r = ParseDocument("<a>\n  <b/>\n  <c/>\n</a>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int kids = 0;
  for (const Node* c = r->root()->first_child; c; c = c->next_sibling) {
    EXPECT_TRUE(c->is_element());
    ++kids;
  }
  EXPECT_EQ(kids, 2);
}

TEST(XmlParserTest, WhitespaceKeptWhenRequested) {
  ParseOptions opts;
  opts.skip_whitespace_text = false;
  auto r = ParseDocument("<a> <b/></a>", opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->root()->first_child->is_text());
  EXPECT_STREQ(r->root()->first_child->text, " ");
}

TEST(XmlParserTest, CapturesDoctype) {
  auto r = ParseXml(
      "<!DOCTYPE hospital [<!ELEMENT hospital (patient)*>]><hospital/>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->doctype_name, "hospital");
  EXPECT_NE(r->doctype_internal_subset.find("<!ELEMENT hospital"),
            std::string::npos);
}

TEST(XmlParserTest, NodeIdsArePreOrderAndSubtreeEndsCorrect) {
  auto r = ParseDocument("<a><b><c/></b><d/></a>");
  ASSERT_TRUE(r.ok());
  const Node* a = r->root();
  const Node* b = a->first_child;
  const Node* c = b->first_child;
  const Node* d = b->next_sibling;
  EXPECT_EQ(a->node_id, 0);
  EXPECT_EQ(b->node_id, 1);
  EXPECT_EQ(c->node_id, 2);
  EXPECT_EQ(d->node_id, 3);
  EXPECT_EQ(a->subtree_end, 4);
  EXPECT_EQ(b->subtree_end, 3);
  EXPECT_TRUE(a->ContainsOrIs(c));
  EXPECT_TRUE(b->ContainsOrIs(c));
  EXPECT_FALSE(b->ContainsOrIs(d));
  EXPECT_FALSE(d->ContainsOrIs(a));
}

// --- failure injection ---

TEST(XmlParserTest, RejectsMismatchedTags) {
  auto r = ParseDocument("<a><b></a></b>");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(XmlParserTest, RejectsUnclosedRoot) {
  EXPECT_FALSE(ParseDocument("<a><b/>").ok());
}

TEST(XmlParserTest, RejectsMultipleRoots) {
  EXPECT_FALSE(ParseDocument("<a/><b/>").ok());
}

TEST(XmlParserTest, RejectsContentOutsideRoot) {
  EXPECT_FALSE(ParseDocument("<a/>stray").ok());
  EXPECT_FALSE(ParseDocument("stray<a/>").ok());
}

TEST(XmlParserTest, RejectsUnknownEntity) {
  EXPECT_FALSE(ParseDocument("<a>&unknown;</a>").ok());
}

TEST(XmlParserTest, RejectsDuplicateAttribute) {
  EXPECT_FALSE(ParseDocument("<a x='1' x='2'/>").ok());
}

TEST(XmlParserTest, RejectsEmptyInput) {
  EXPECT_FALSE(ParseDocument("").ok());
  EXPECT_FALSE(ParseDocument("   ").ok());
}

TEST(XmlParserTest, RejectsMalformedTagSyntax) {
  EXPECT_FALSE(ParseDocument("<a b></a>").ok());
  EXPECT_FALSE(ParseDocument("<a b=>").ok());
  EXPECT_FALSE(ParseDocument("<1tag/>").ok());
  EXPECT_FALSE(ParseDocument("<a x='1'").ok());
}

TEST(XmlParserTest, ErrorsMentionLineNumbers) {
  auto r = ParseDocument("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().ToString();
}

// --- malformed-input corpus (S1) ---
//
// Every entry must come back as ParseError — never an assert, a crash or
// a silently truncated document. The corpus is drawn from mangling the
// well-formed fixtures above: truncations, unterminated constructs, bad
// entity references, attributes in the wrong lexical state.

TEST(XmlParserTest, MalformedCorpusAlwaysParseError) {
  const char* corpus[] = {
      // Truncations of "<a x=\"1\"><b>text</b></a>" at every interesting
      // lexical state.
      "<",
      "<a",
      "<a ",
      "<a x",
      "<a x=",
      "<a x=\"",
      "<a x=\"1",
      "<a x=\"1\"",
      "<a x=\"1\"><b",
      "<a x=\"1\"><b>text",
      "<a x=\"1\"><b>text</b",
      "<a x=\"1\"><b>text</b>",
      "<a x=\"1\"><b>text</b></a",
      // Unterminated block constructs.
      "<a><![CDATA[never closed</a>",
      "<a><!-- never closed</a>",
      "<?xml version=\"1.0\"",
      "<a><?pi never closed</a>",
      "<!DOCTYPE hospital [<!ELEMENT hospital (p)*>",
      "<!DOCTYPE hospital [<!ELEMENT hospital (p)*>]",
      "<a attr=\"never closed></a>",
      // Bad entity references.
      "<a>&;</a>",
      "<a>&#;</a>",
      "<a>&#x;</a>",
      "<a>&#xZZ;</a>",
      "<a>&#99999999;</a>",
      "<a>&toolongentityname;</a>",
      "<a>&amp</a>",
      "<a v='&'/>",
      // Character references to non-XML characters.
      "<a>&#0;</a>",
      "<a>&#x0;</a>",
      "<a>&#1;</a>",
      "<a>&#x1F;</a>",
      "<a>&#xD800;</a>",
      "<a>&#xDFFF;</a>",
      "<a v='&#0;'/>",
      // Attribute machinery in the wrong state.
      "<a =\"1\"/>",
      "<a x \"1\"/>",
      "<a x=1/>",
      "<a x='1' x='1'/>",
      "<a/ x='1'>",
      "<a x='<'/>",
      "</a>",
      "<a></a x='1'>",
      // Structural nonsense.
      "<a><b/><a/>",
      "<a/></a>",
      "<![CDATA[x]]>",
      "<a/><!DOCTYPE late [ ]>",
      "<>",
      "< a/>",
  };
  for (const char* doc : corpus) {
    auto r = ParseDocument(doc);
    ASSERT_FALSE(r.ok()) << "accepted malformed input: " << doc;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError)
        << doc << " -> " << r.status().ToString();
  }
}

TEST(XmlParserTest, TruncationSweepNeverCrashes) {
  // Every prefix of a fixture covering tags, attributes, text, CDATA,
  // comments, PIs, DOCTYPE and entities must either parse (only the full
  // input does) or fail cleanly with ParseError.
  const std::string fixture =
      "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a (b)*>]>"
      "<!-- c --><a x=\"1\" y='&amp;'><b>t&#65;</b><![CDATA[raw]]>"
      "<?pi d?></a>";
  for (size_t len = 0; len < fixture.size(); ++len) {
    auto r = ParseDocument(fixture.substr(0, len));
    ASSERT_FALSE(r.ok()) << "prefix of length " << len << " accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << "len " << len;
  }
  EXPECT_TRUE(ParseDocument(fixture).ok());
}

TEST(XmlParserTest, RejectsRawNulByte) {
  std::string with_nul = "<a>xy</a>";
  with_nul[4] = '\0';
  EXPECT_FALSE(ParseDocument(with_nul).ok());
  std::string attr_nul = "<a v='x'/>";
  attr_nul[6] = '\0';
  EXPECT_FALSE(ParseDocument(attr_nul).ok());
}

TEST(XmlParserTest, AcceptsValidControlCharacterReferences) {
  // Tab, LF and CR are the C0 controls XML allows.
  auto r = ParseDocument("<a>&#9;&#10;&#13;</a>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Document::DirectText(r->root()), "\t\n\r");
}

// --- serializer round-trip ---

TEST(XmlSerializerTest, CompactRoundTrip) {
  const std::string input =
      "<a x=\"1\"><b>text &amp; more</b><c/><d>t2</d></a>";
  auto r = ParseDocument(input);
  ASSERT_TRUE(r.ok());
  std::string out = SerializeDocument(*r);
  EXPECT_EQ(out, input);
  // Parse the output again: same serialization (fixpoint).
  auto r2 = ParseDocument(out);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(SerializeDocument(*r2), out);
}

TEST(XmlSerializerTest, PrettyPrintsNested) {
  auto r = ParseDocument("<a><b>hi</b></a>");
  ASSERT_TRUE(r.ok());
  SerializeOptions opts;
  opts.pretty = true;
  std::string out = SerializeDocument(*r, opts);
  EXPECT_NE(out.find("<a>\n"), std::string::npos);
  EXPECT_NE(out.find("  <b>"), std::string::npos);
  // Pretty output still parses to an equivalent compact form.
  auto r2 = ParseDocument(out);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(SerializeDocument(*r2), SerializeDocument(*r));
}

TEST(XmlSerializerTest, EscapesAttributeValues) {
  auto r = ParseDocument("<a v=\"a&amp;b&lt;c&quot;d\"/>");
  ASSERT_TRUE(r.ok());
  std::string out = SerializeDocument(*r);
  auto r2 = ParseDocument(out);
  ASSERT_TRUE(r2.ok());
  NameId v = r2->names()->Lookup("v");
  EXPECT_STREQ(r2->root()->FindAttr(v), "a&b<c\"d");
}

// --- SerializeNodes: one walk per outermost node, nested nodes as spans ---

// Every node of `root`'s subtree in document order (elements and text).
void CollectPreOrder(const Node* root, std::vector<const Node*>* out) {
  out->push_back(root);
  for (const Node* c = root->first_child; c != nullptr; c = c->next_sibling) {
    CollectPreOrder(c, out);
  }
}

std::vector<const Node*> PreOrder(const Document& doc) {
  std::vector<const Node*> nodes;
  CollectPreOrder(doc.root(), &nodes);
  return nodes;
}

std::vector<const Node*> Labeled(const Document& doc, std::string_view name) {
  std::vector<const Node*> out;
  for (const Node* n : PreOrder(doc)) {
    if (n->is_element() && doc.names()->NameOf(n->label) == name) {
      out.push_back(n);
    }
  }
  return out;
}

// The differential: SerializeNodes(nodes)[i] == SerializeNode(nodes[i]).
void ExpectSameAsPerNode(const std::vector<const Node*>& nodes,
                         const NameTable& names) {
  auto got = SerializeNodes(nodes, names);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ((*got)[i], SerializeNode(nodes[i], names)) << "node " << i;
  }
}

Document MustParse(std::string_view text) {
  auto r = ParseDocument(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

TEST(XmlSerializeNodesTest, NestedChainsOfADeepDocument) {
  auto doc = workload::GenHospitalDeep(1, 8000);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_GE(doc->num_nodes(), 5000);
  const std::vector<const Node*> patients = Labeled(*doc, "patient");
  // Chains: some patient is nested in another patient.
  size_t nested = 0;
  for (const Node* p : patients) {
    for (const Node* a = p->parent; a != nullptr; a = a->parent) {
      if (a->label == p->label) {
        ++nested;
        break;
      }
    }
  }
  ASSERT_GE(nested, 100u);
  ExpectSameAsPerNode(patients, *doc->names());
  // Every node at once: elements and text, each nested in all ancestors.
  ExpectSameAsPerNode(PreOrder(*doc), *doc->names());
}

TEST(XmlSerializeNodesTest, DisjointAndNestedMixed) {
  Document doc = MustParse(
      "<a><b><c/><b>x<b/></b></b><d><b>y</b></d><b/><e><f>z</f></e></a>");
  std::vector<const Node*> nodes = Labeled(doc, "b");
  ASSERT_EQ(nodes.size(), 5u);
  nodes.push_back(Labeled(doc, "d")[0]);
  nodes.push_back(Labeled(doc, "f")[0]);
  std::sort(nodes.begin(), nodes.end(), [](const Node* x, const Node* y) {
    return x->order < y->order;
  });
  ExpectSameAsPerNode(nodes, *doc.names());
}

TEST(XmlSerializeNodesTest, TextNodeAnswers) {
  Document doc = MustParse("<a><b>one &amp; two</b>three<c>&lt;4&gt;</c></a>");
  std::vector<const Node*> texts;
  for (const Node* n : PreOrder(doc)) {
    if (n->is_text()) texts.push_back(n);
  }
  ASSERT_EQ(texts.size(), 3u);
  ExpectSameAsPerNode(texts, *doc.names());
  // Text nodes nested in element answers.
  std::vector<const Node*> mixed = PreOrder(doc);
  ExpectSameAsPerNode(mixed, *doc.names());
}

TEST(XmlSerializeNodesTest, AttributesWithEveryEntity) {
  Document doc = MustParse(
      "<r a=\"&amp;&lt;&gt;&quot;&apos;\" b=\"x'y\">"
      "<s k=\"1 &lt; 2 &amp;&amp; 3 &gt; 2\">q&quot;&apos;</s></r>");
  auto got = SerializeNodes(PreOrder(doc), *doc.names());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)[0],
            "<r a=\"&amp;&lt;&gt;&quot;&apos;\" b=\"x&apos;y\">"
            "<s k=\"1 &lt; 2 &amp;&amp; 3 &gt; 2\">q&quot;&apos;</s></r>");
  ExpectSameAsPerNode(PreOrder(doc), *doc.names());
}

TEST(XmlSerializeNodesTest, SelfClosingElements) {
  Document doc = MustParse("<r><e/><f><e/></f><e x=\"1\"/></r>");
  auto got = SerializeNodes(Labeled(doc, "e"), *doc.names());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got,
            (std::vector<std::string>{"<e/>", "<e/>", "<e x=\"1\"/>"}));
  ExpectSameAsPerNode(PreOrder(doc), *doc.names());
}

TEST(XmlSerializeNodesTest, RootAloneAndEmptyList) {
  Document doc = MustParse("<a><b>t</b><c/></a>");
  ExpectSameAsPerNode({doc.root()}, *doc.names());
  Document bare = MustParse("<a/>");
  ExpectSameAsPerNode({bare.root()}, *bare.names());
  auto none = SerializeNodes({}, *doc.names());
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(XmlSerializeNodesTest, AnyOrderAndDuplicatesGiveTheSameStrings) {
  Document doc = MustParse("<a><b><c>1</c></b><c>2</c></a>");
  std::vector<const Node*> nodes = PreOrder(doc);
  std::reverse(nodes.begin(), nodes.end());
  ExpectSameAsPerNode(nodes, *doc.names());
  const Node* b = Labeled(doc, "b")[0];
  ExpectSameAsPerNode({b, b, doc.root(), b}, *doc.names());
}

TEST(XmlSerializeNodesTest, GuardTripReturnsNoPartialResult) {
  auto doc = workload::GenHospitalDeep(1, 8000);
  ASSERT_TRUE(doc.ok());
  const std::vector<const Node*> patients = Labeled(*doc, "patient");
  size_t bytes = 0;
  for (const Node* p : patients) bytes += SerializeNode(p, *doc->names()).size();

  // A budget below the answer bytes trips; the scratch buffer and the
  // copies are what it is charged with.
  MemoryBudget budget(bytes / 2);
  Guardrail guard(Deadline(), nullptr, &budget);
  auto tripped = SerializeNodes(patients, *doc->names(), &guard);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(budget.exceeded());

  CancelToken cancel;
  cancel.Cancel();
  Guardrail cancelled(Deadline(), &cancel, nullptr);
  auto stopped = SerializeNodes(patients, *doc->names(), &cancelled);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kCancelled);

  // An unlimited budget still accounts: at least every answer byte.
  MemoryBudget unlimited;
  Guardrail governed(Deadline(), nullptr, &unlimited);
  auto ok = SerializeNodes(patients, *doc->names(), &governed);
  ASSERT_TRUE(ok.ok());
  EXPECT_GE(unlimited.used(), bytes);
}

}  // namespace
}  // namespace smoqe::xml
