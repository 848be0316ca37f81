#include "src/sim/config.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace centsim {
namespace {

std::string Trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) {
    return "";
  }
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) { return std::tolower(c); });
  return s;
}

// Sets `error` (if given) to the message for a value that is not `type`.
void NotA(const std::string& key, const std::string& value, int line, const char* type,
          std::string* error) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line) + ": " + key + " = '" + value + "' is not " + type;
  }
}

}  // namespace

std::optional<Config> Config::Parse(const std::string& text, std::string* error) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#' || trimmed[0] == ';') {
      continue;
    }
    if (trimmed.front() == '[') {
      if (trimmed.back() != ']' || trimmed.size() < 3) {
        if (error != nullptr) {
          *error = "line " + std::to_string(line_no) + ": malformed section header";
        }
        return std::nullopt;
      }
      section = Trim(trimmed.substr(1, trimmed.size() - 2));
      continue;
    }
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": expected key = value";
      }
      return std::nullopt;
    }
    const std::string key = Trim(trimmed.substr(0, eq));
    const std::string value = Trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": empty key";
      }
      return std::nullopt;
    }
    cfg.values_[section.empty() ? key : section + "." + key] = {value, line_no};
  }
  return cfg;
}

std::optional<Config> Config::Load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return Parse(buf.str(), error);
}

bool Config::Has(const std::string& key) const { return values_.count(key) > 0; }

std::vector<std::string> Config::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(values_.size());
  for (const auto& [key, entry] : values_) {
    keys.push_back(key);
  }
  return keys;
}

int Config::LineOf(const std::string& key) const {
  auto it = values_.find(key);
  return it == values_.end() ? 0 : it->second.line;
}

std::string Config::GetString(const std::string& key, const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second.value;
}

std::optional<int64_t> Config::GetInt(const std::string& key, int64_t fallback,
                                      std::string* error) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const char* text = it->second.value.c_str();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    NotA(key, it->second.value, it->second.line, "an integer", error);
    return std::nullopt;
  }
  return v;
}

std::optional<double> Config::GetDouble(const std::string& key, double fallback,
                                        std::string* error) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const char* text = it->second.value.c_str();
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v)) {
    NotA(key, it->second.value, it->second.line, "a finite number", error);
    return std::nullopt;
  }
  return v;
}

std::optional<bool> Config::GetBool(const std::string& key, bool fallback,
                                    std::string* error) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string v = Lower(it->second.value);
  if (v == "true" || v == "yes" || v == "on" || v == "1") {
    return true;
  }
  if (v == "false" || v == "no" || v == "off" || v == "0") {
    return false;
  }
  NotA(key, it->second.value, it->second.line, "a boolean (true/false, yes/no, on/off, 1/0)",
       error);
  return std::nullopt;
}

}  // namespace centsim
