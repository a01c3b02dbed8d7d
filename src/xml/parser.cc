#include "src/xml/parser.h"

#include <fstream>
#include <sstream>

namespace smoqe::xml {

Result<ParsedDocument> ParseXml(std::string_view input, ParseOptions options) {
  StaxOptions stax_options;
  stax_options.skip_whitespace_text = options.skip_whitespace_text;
  StaxReader reader(input, stax_options);
  DocumentBuilder builder(options.names);

  while (true) {
    SMOQE_ASSIGN_OR_RETURN(StaxEvent ev, reader.Next());
    switch (ev) {
      case StaxEvent::kStartDocument:
        break;
      case StaxEvent::kStartElement:
        builder.StartElement(reader.name());
        for (const StaxAttr& a : reader.attrs()) {
          builder.AddAttribute(a.name, a.value);
        }
        break;
      case StaxEvent::kCharacters:
        builder.AddText(reader.text());
        break;
      case StaxEvent::kEndElement:
        SMOQE_RETURN_IF_ERROR(builder.EndElement());
        break;
      case StaxEvent::kEndDocument: {
        SMOQE_ASSIGN_OR_RETURN(Document doc, builder.Finish());
        ParsedDocument out{std::move(doc), std::string(reader.doctype_name()),
                           std::string(reader.doctype_internal_subset())};
        return out;
      }
    }
  }
}

Result<Document> ParseDocument(std::string_view input, ParseOptions options) {
  SMOQE_ASSIGN_OR_RETURN(ParsedDocument parsed, ParseXml(input, options));
  return std::move(parsed.document);
}

Result<ParsedDocument> ParseXmlFile(const std::string& path,
                                    ParseOptions options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string content = buf.str();
  return ParseXml(content, options);
}

}  // namespace smoqe::xml
