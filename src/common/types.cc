#include "common/types.h"

#include <cctype>
#include <cstdlib>

namespace minihive {

const char* TypeKindName(TypeKind kind) {
  switch (kind) {
    case TypeKind::kBoolean:
      return "boolean";
    case TypeKind::kTinyInt:
      return "tinyint";
    case TypeKind::kSmallInt:
      return "smallint";
    case TypeKind::kInt:
      return "int";
    case TypeKind::kBigInt:
      return "bigint";
    case TypeKind::kFloat:
      return "float";
    case TypeKind::kDouble:
      return "double";
    case TypeKind::kString:
      return "string";
    case TypeKind::kTimestamp:
      return "timestamp";
    case TypeKind::kArray:
      return "array";
    case TypeKind::kMap:
      return "map";
    case TypeKind::kStruct:
      return "struct";
    case TypeKind::kUnion:
      return "uniontype";
  }
  return "unknown";
}

bool IsIntegerFamily(TypeKind kind) {
  switch (kind) {
    case TypeKind::kBoolean:
    case TypeKind::kTinyInt:
    case TypeKind::kSmallInt:
    case TypeKind::kInt:
    case TypeKind::kBigInt:
    case TypeKind::kTimestamp:
      return true;
    default:
      return false;
  }
}

bool IsFloatingFamily(TypeKind kind) {
  return kind == TypeKind::kFloat || kind == TypeKind::kDouble;
}

bool IsPrimitive(TypeKind kind) {
  switch (kind) {
    case TypeKind::kArray:
    case TypeKind::kMap:
    case TypeKind::kStruct:
    case TypeKind::kUnion:
      return false;
    default:
      return true;
  }
}

TypePtr TypeDescription::CreateArray(TypePtr element) {
  TypePtr type = Create(TypeKind::kArray);
  type->children_.push_back(std::move(element));
  return type;
}

TypePtr TypeDescription::CreateMap(TypePtr key, TypePtr value) {
  TypePtr type = Create(TypeKind::kMap);
  type->children_.push_back(std::move(key));
  type->children_.push_back(std::move(value));
  return type;
}

TypePtr TypeDescription::CreateStruct() { return Create(TypeKind::kStruct); }

TypePtr TypeDescription::CreateUnion() { return Create(TypeKind::kUnion); }

TypeDescription* TypeDescription::AddField(const std::string& name,
                                           TypePtr child) {
  if (kind_ != TypeKind::kStruct && kind_ != TypeKind::kUnion) {
    std::abort();
  }
  field_names_.push_back(name);
  children_.push_back(std::move(child));
  return this;
}

int TypeDescription::AssignColumnIds(int first_id) {
  column_id_ = first_id;
  int next = first_id + 1;
  for (const TypePtr& child : children_) {
    next = child->AssignColumnIds(next);
  }
  return next;
}

int TypeDescription::ColumnCount() const {
  int count = 1;
  for (const TypePtr& child : children_) {
    count += child->ColumnCount();
  }
  return count;
}

void TypeDescription::Flatten(
    std::vector<const TypeDescription*>* out) const {
  out->push_back(this);
  for (const TypePtr& child : children_) {
    child->Flatten(out);
  }
}

std::string TypeDescription::ToString() const {
  std::string result = TypeKindName(kind_);
  switch (kind_) {
    case TypeKind::kArray:
      result.append("<").append(children_[0]->ToString()).append(">");
      break;
    case TypeKind::kMap:
      result.append("<").append(children_[0]->ToString()).append(",");
      result.append(children_[1]->ToString()).append(">");
      break;
    case TypeKind::kStruct: {
      result += "<";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) result += ",";
        result += field_names_[i] + ":" + children_[i]->ToString();
      }
      result += ">";
      break;
    }
    case TypeKind::kUnion: {
      result += "<";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) result += ",";
        result += children_[i]->ToString();
      }
      result += ">";
      break;
    }
    default:
      break;
  }
  return result;
}

bool TypeDescription::Equals(const TypeDescription& other) const {
  if (kind_ != other.kind_ || children_.size() != other.children_.size()) {
    return false;
  }
  if (field_names_ != other.field_names_) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

namespace {

/// Recursive-descent parser over Hive type strings.
class TypeParser {
 public:
  explicit TypeParser(std::string_view text) : text_(text) {}

  Result<TypePtr> Parse() {
    MINIHIVE_ASSIGN_OR_RETURN(TypePtr type, ParseType());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters in type string: " +
                                     std::string(text_.substr(pos_)));
    }
    return type;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string ParseWord() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  Result<TypePtr> ParseType() {
    std::string word = ParseWord();
    if (word == "boolean") return TypeDescription::CreateBoolean();
    if (word == "tinyint") return TypeDescription::CreateTinyInt();
    if (word == "smallint") return TypeDescription::CreateSmallInt();
    if (word == "int") return TypeDescription::CreateInt();
    if (word == "bigint") return TypeDescription::CreateBigInt();
    if (word == "float") return TypeDescription::CreateFloat();
    if (word == "double") return TypeDescription::CreateDouble();
    if (word == "string") return TypeDescription::CreateString();
    if (word == "timestamp") return TypeDescription::CreateTimestamp();
    if (word == "array") {
      if (!Consume('<')) return Expected("'<' after array");
      MINIHIVE_ASSIGN_OR_RETURN(TypePtr element, ParseType());
      if (!Consume('>')) return Expected("'>' to close array");
      return TypeDescription::CreateArray(std::move(element));
    }
    if (word == "map") {
      if (!Consume('<')) return Expected("'<' after map");
      MINIHIVE_ASSIGN_OR_RETURN(TypePtr key, ParseType());
      if (!Consume(',')) return Expected("',' in map");
      MINIHIVE_ASSIGN_OR_RETURN(TypePtr value, ParseType());
      if (!Consume('>')) return Expected("'>' to close map");
      return TypeDescription::CreateMap(std::move(key), std::move(value));
    }
    if (word == "struct") {
      if (!Consume('<')) return Expected("'<' after struct");
      TypePtr result = TypeDescription::CreateStruct();
      bool first = true;
      while (!Consume('>')) {
        if (!first && !Consume(',')) return Expected("',' in struct");
        first = false;
        std::string name = ParseWord();
        if (name.empty()) return Expected("field name in struct");
        if (!Consume(':')) return Expected("':' after struct field name");
        MINIHIVE_ASSIGN_OR_RETURN(TypePtr child, ParseType());
        result->AddField(name, std::move(child));
      }
      return result;
    }
    if (word == "uniontype") {
      if (!Consume('<')) return Expected("'<' after uniontype");
      TypePtr result = TypeDescription::CreateUnion();
      bool first = true;
      int index = 0;
      while (!Consume('>')) {
        if (!first && !Consume(',')) return Expected("',' in uniontype");
        first = false;
        MINIHIVE_ASSIGN_OR_RETURN(TypePtr child, ParseType());
        result->AddField("tag" + std::to_string(index++), std::move(child));
      }
      return result;
    }
    return Status::InvalidArgument("unknown type name: '" + word + "'");
  }

  Status Expected(const std::string& what) {
    return Status::InvalidArgument("expected " + what + " at offset " +
                                   std::to_string(pos_) + " in '" +
                                   std::string(text_) + "'");
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<TypePtr> TypeDescription::Parse(std::string_view text) {
  return TypeParser(text).Parse();
}

TypePtr MakeTableSchema(const std::vector<std::string>& names,
                        const std::vector<TypePtr>& types) {
  TypePtr schema = TypeDescription::CreateStruct();
  for (size_t i = 0; i < names.size(); ++i) {
    schema->AddField(names[i], types[i]);
  }
  schema->AssignColumnIds(0);
  return schema;
}

}  // namespace minihive
